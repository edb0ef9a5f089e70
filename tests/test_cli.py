import json

import pytest

from gwtaut.cli import main
from gwtaut.series import QSeries
from gwtaut.verify import verify_cp1


def run(capsys, *argv):
    """Run the CLI in-process; argparse usage errors surface as SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


P1_WINDOW = ("potential", "--r", "1", "--vars", "x0,x1,s0:1", "--cap", "3", "--qmax", "1")


def p2_config(divisor_class: int) -> str:
    """P^2 as a custom target, its divisor pairing on ``divisor_class``."""
    return json.dumps({
        "type": "custom",
        "gradings": [0, 2, 4],
        "eta": [[int(a + b == 2) for b in range(3)] for a in range(3)],
        "cup": [[[int(nu == a + b) for nu in range(3)] for b in range(3)] for a in range(3)],
        "c1_degree": 3,
        "divisor_pairings": [[divisor_class, 1]],
        "seeds": [[[2, 2], 1, 1]],
    })


def test_correlator_value_and_exit_zero(capsys):
    code, out, _ = run(capsys, "correlator", "--r", "2", "--degree", "1", "--tau", "0,2,2")
    assert code == 0
    assert json.loads(out)["value"] == "1/1"
    code, out, _ = run(
        capsys, "correlator", "--target", p2_config(1), "--degree", "1", "--tau", "1,2,1"
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/1"


@pytest.mark.parametrize(
    "argv",
    [
        ("correlator", "--r", "0", "--degree", "1", "--tau", "0,0,3"),
        ("correlator", "--spec-json", '{"r": 0, "degree": 1}'),
        ("correlator", "--spec-json", '{"r": "two", "degree": 1}'),
        ("correlator", "--spec-json", '{"target": {"type": "custom"}, "degree": 1}'),
        ("potential", "--r", "0"),
        ("potential", "--target", '{"type": "projective_space", "r": 0}'),
        ("potential", "--target", "[2]"),
        ("verify", "--suite", "trees", "--r", "0"),
        ("verify", "--suite", "trr", "--r", "1", "--samples", "0"),
        ("verify", "--suite", "wdvv", "--r", "1", "--qmax", "0"),  # empty window would pass vacuously
        (  # a degenerate Poincare pairing used to run and print the value 1
            "correlator", "--tau", "0,1,1", "--degree", "1", "--target",
            '{"type": "custom", "gradings": [0, 2], "eta": [[0, 0], [0, 0]], '
            '"cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], "c1_degree": 2, '
            '"divisor_pairings": [[1, 1]], "seeds": [[[], 1, 1]]}',
        ),
        # a negative multiplicity is refused, not netted to one tau_0^1 (value 1)
        ("correlator", "--r", "1", "--degree", "1", "--tau", "0,1,2", "--tau", "0,1,-1"),
        ("correlator", "--r", "1", "--degree", "-1"),
        ("correlator", "--spec-json", '{"r": 1, "degree": -1}'),
        ("potential", "--r", "1", "--vars", "x2"),
        ("potential", "--r", "1", "--vars", "t-1:0"),
        ("potential", "--r", "1", "--vars", "s-2:1"),
        # a divisor pairing on e_2 was accepted and printed <tau_1(e_2)>_1 = 0
        ("correlator", "--target", p2_config(2), "--degree", "1", "--tau", "1,2,1"),
        # an empty basis was an IndexError traceback
        (
            "correlator", "--target",
            '{"type":"custom","gradings":[],"eta":[],"cup":[],"c1_degree":1}',
        ),
        (  # a pairing that is not graded: eta(e0, e0) = 1 on P^1's ring
            "correlator", "--tau", "0,0,3", "--degree", "0", "--target",
            '{"type": "custom", "gradings": [0, 2], "eta": [[1, 1], [1, 0]], '
            '"cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], "c1_degree": 2, '
            '"divisor_pairings": [[1, 1]], "seeds": [[[], 1, 1]]}',
        ),
    ],
)
def test_bad_numeric_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "engine error" not in err


CLONE_OF_P1 = (
    '"type": "custom", "gradings": [0, 2], "eta": [[0, 1], [1, 0]], '
    '"cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], "c1_degree": 2'
)


@pytest.mark.parametrize(
    "spec",
    [
        '{"r": 1.5, "degree": 1, "tau": [[0, 1, 2]]}',  # was read as P^1
        '{"r": 1, "degree": true, "tau": [[0, 1, 2]]}',  # was read as degree 1
        '{"r": 1, "degree": 1, "tau": [[0, 1.5, 1], [0, 1, 1]]}',  # was class 1
        '{"target": {' + CLONE_OF_P1 + ', "divisor_pairings": [[1, "1/0"]]}, '
        '"degree": 1, "tau": [[0, 1, 2]]}',  # was a ZeroDivisionError traceback
    ],
)
def test_non_integer_json_is_usage_error(capsys, spec):
    code, out, err = run(capsys, "correlator", "--spec-json", spec)
    assert code == 2
    assert out == ""
    assert "engine error" not in err


P1_SPEC = '{"r": 1, "degree": 1, "tau": [[0, 1, 2]]}'  # <tau_0(e_1)^2>_1 = 1 on P^1


def test_correlator_spec_gives_the_flags_value(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(P1_SPEC)
    flags = run(capsys, "correlator", "--r", "1", "--degree", "1", "--tau", "0,1,2")
    assert flags[0] == 0 and json.loads(flags[1])["value"] == "1/1"
    assert run(capsys, "correlator", "--spec-json", P1_SPEC) == flags
    assert run(capsys, "correlator", "--spec", str(spec_file)) == flags


def test_spec_file_and_inline_spec_is_usage_error(capsys, tmp_path):
    # the file was read and the inline spec dropped
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(P1_SPEC)
    code, out, err = run(capsys, "correlator", "--spec", str(spec_file), "--spec-json", P1_SPEC)
    assert (code, out) == (2, "")
    assert "not allowed" in err


@pytest.mark.parametrize(
    "spec",
    [
        '{"r": 1, "degree": 1, "tau": 5}',  # was a TypeError traceback, exit 1
        '{"r": 1, "degree": 1, "kappa": 7}',  # likewise
        '{"r": 1, "deg": 1, "tau": [[0, 1, 2]]}',  # degree 0 was read: 0/1
        # the misspelled kappa was dropped: 1/1, where kappa gives 0/1
        '{"r": 2, "degree": 1, "tau": [[0, 2, 2]], "kapa": [[0, 1, 2]]}',
        # the target was taken and r dropped
        '{"target": {"type": "projective_space", "r": 2}, "r": 1, "degree": 1, '
        '"tau": [[0, 1, 2]]}',
    ],
    ids=["tau-int", "kappa-int", "deg", "kapa", "target-and-r"],
)
def test_misread_spec_is_usage_error(capsys, spec):
    code, out, err = run(capsys, "correlator", "--spec-json", spec)
    assert (code, out) == (2, "")
    assert "error" in err and "Traceback" not in err


P2_TARGET = '{"type": "projective_space", "r": 2}'


@pytest.mark.parametrize(
    "argv",
    [
        # P^2 was evaluated (0/1) where --r 1 gives 1/1
        ("correlator", "--r", "1", "--degree", "1", "--tau", "0,1,1", "--target", P2_TARGET),
        ("potential", "--r", "1", "--target", P2_TARGET),  # built the P^2 window
        # each flag was dropped and the spec's value printed
        ("correlator", "--spec-json", P1_SPEC, "--degree", "3"),
        ("correlator", "--spec-json", P1_SPEC, "--degree", "0"),
        ("correlator", "--spec-json", P1_SPEC, "--r", "2"),
        ("correlator", "--spec-json", P1_SPEC, "--target", P2_TARGET),
        ("correlator", "--spec-json", P1_SPEC, "--tau", "0,1,1"),
        ("correlator", "--spec-json", P1_SPEC, "--kappa", "0,1,1"),
    ],
    ids=[
        "correlator-r-and-target", "potential-r-and-target", "spec-and-degree",
        "spec-and-degree-0", "spec-and-r",
        "spec-and-target", "spec-and-tau", "spec-and-kappa",
    ],
)
def test_ignored_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error" in err


@pytest.mark.parametrize("flag", ["--cap", "--qmax", "--total"])
def test_negative_potential_bound_is_usage_error(capsys, flag):
    code, out, err = run(capsys, "potential", "--r", "1", "--vars", "x0", flag, "-1")
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("command", [P1_WINDOW, ("verify", "--suite", "trees")])
def test_jobs_flag_is_rejected(capsys, command):
    code, out, err = run(capsys, *command, "--jobs", "2")
    assert code == 2
    assert out == ""
    assert "--jobs" in err


def test_potential_text_is_the_table_only(capsys):
    code, out_json, _ = run(capsys, *P1_WINDOW, "--format", "json")
    assert code == 0
    series = QSeries.from_json_dict(json.loads(out_json))
    assert not series.is_zero()

    code, out_text, _ = run(capsys, *P1_WINDOW, "--format", "text")
    assert code == 0
    assert not out_text.lstrip().startswith("{")
    assert out_text == series.table() + "\n"


# -- golden output: the docstring promises byte-stable output ------------------------

H3 = ("correlator", "--r", "1", "--degree", "3", "--kappa", "0,1,4")
P2_PSI_KAPPA = (
    "correlator", "--r", "2", "--degree", "2", "--tau", "0,1,2", "--tau", "1,2,1",
    "--kappa", "2,1,1",
)
GOLDEN_CORRELATORS = {
    (H3, "json"): '{"value": "4/1", "expected_dimension": 4, "reductions": 11}\n',
    (H3, "csv"): "value,expected_dimension,reductions\n4/1,4,11\n",
    (H3, "text"): "value 4/1\nexpected_dimension 4\nreductions 11\n",
    (P2_PSI_KAPPA, "json"): '{"value": "-3/1", "expected_dimension": 8, "reductions": 12}\n',
    (P2_PSI_KAPPA, "csv"): "value,expected_dimension,reductions\n-3/1,8,12\n",
    (P2_PSI_KAPPA, "text"): "value -3/1\nexpected_dimension 8\nreductions 12\n",
}


@pytest.mark.parametrize("argv, fmt", sorted(GOLDEN_CORRELATORS))
def test_correlator_output_is_golden(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == GOLDEN_CORRELATORS[argv, fmt]


def test_correlator_reductions_do_not_depend_on_earlier_commands(capsys):
    h4 = ("correlator", "--r", "1", "--degree", "4", "--kappa", "0,1,6")
    assert json.loads(run(capsys, *h4)[1])["reductions"] == 31
    assert json.loads(run(capsys, *H3)[1])["reductions"] == 11


def test_deepest_p2_ladder_key_work_is_pinned(capsys):
    # a split term puts its lower-degree factor first, so a product stops at
    # a zero factor before the costlier one is evaluated; with the factors
    # in the order the split builds them this key takes 82 reductions
    p2_k8 = ("correlator", "--r", "2", "--degree", "3", "--kappa", "0,1,8")
    payload = json.loads(run(capsys, *p2_k8)[1])
    assert payload["value"] == "-420/1" and payload["reductions"] == 52


@pytest.mark.parametrize(
    "argv",
    [
        ("--r", "1", "--degree", "1", "--tau", "0,1,1000"),
        ("--r", "2", "--degree", "1", "--tau", "0,1,400", "--tau", "0,2,2"),
    ],
    ids=["P1-1000-divisors", "P2-400-divisors-two-points"],
)
def test_many_divisor_points_drop_in_one_step(capsys, argv):
    # the divisor axiom drops every e_1 point at once; one point per recursive
    # evaluate call ran past the recursion limit on these keys
    code, out, err = run(capsys, "correlator", *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["value"] == "1/1" and payload["reductions"] == 0


def test_kappa_minus_one_value_may_follow_its_flag(capsys):
    # argparse reads a separate "-1,1,2" as an option unless the CLI joins it
    base = ("correlator", "--r", "1", "--degree", "1")
    joined = run(capsys, *base, "--kappa=-1,1,2")
    assert joined == run(capsys, *base, "--kappa", "-1,1,2")
    assert joined[0] == 0 and json.loads(joined[1])["value"] == "1/1"


def test_potential_json_is_golden(capsys):
    argv = ("potential", "--r", "1", "--vars", "x1,s0:1", "--cap", "2", "--qmax", "2")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == (
        '{"vars": [{"kind": "t", "a": 0, "alpha": 1, "grading": 0}, '
        '{"kind": "s", "a": 0, "alpha": 1, "grading": 2}, '
        '{"kind": "q", "a": 0, "alpha": 0, "grading": -4}], '
        '"truncation": {"caps": [2, 2, 2], "total_cap": null}, '
        '"terms": [{"exp": [0, 0, 1], "coef": "1/1"}, {"exp": [0, 2, 2], "coef": "1/4"}, '
        '{"exp": [1, 0, 1], "coef": "1/1"}, {"exp": [1, 2, 2], "coef": "1/2"}, '
        '{"exp": [2, 0, 1], "coef": "1/2"}, {"exp": [2, 2, 2], "coef": "1/2"}]}\n'
    )


# -- verify suites, on inputs small enough for the unit tests --------------------------


@pytest.mark.parametrize(
    "suite, extra",
    [
        ("trr", ("--samples", "8")),
        ("dilaton", ("--samples", "8")),
        ("paths", ("--samples", "8")),
        ("wdvv", ("--r", "1", "--qmax", "2")),
        ("trees", ()),
    ],
    ids=["trr", "dilaton", "paths", "wdvv", "trees"],
)
def test_verify_suite_passes(capsys, suite, extra):
    code, out, err = run(capsys, "verify", "--suite", suite, *extra)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"suite {suite}: PASS"


def test_verify_cp1_passes_on_a_small_window():
    # the CLI suite evaluates up to h_8; h_5 and q <= 2 keep the same checks fast
    ok, lines = verify_cp1(q_cap=2, h_count=5)
    assert ok, "\n".join(lines)

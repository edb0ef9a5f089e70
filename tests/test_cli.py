import json

import pytest

from gwtaut.cli import main
from gwtaut.series import QSeries


def run(capsys, *argv):
    """Run the CLI in-process; argparse usage errors surface as SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


P1_WINDOW = ("potential", "--r", "1", "--vars", "x0,x1,s0:1", "--cap", "3", "--qmax", "1")


def test_correlator_value_and_exit_zero(capsys):
    code, out, _ = run(capsys, "correlator", "--r", "2", "--degree", "1", "--tau", "0,2,2")
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
    ],
)
def test_bad_numeric_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "engine error" not in err


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

"""The six frozen records: constructor, repr, equality, hash and immutability.

``Decoration``'s repr is a sort key of ``DecoratedTree`` and of the tree
layout, and it is what tells a token on ``True`` from one on ``1``, so every
repr is pinned byte for byte.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gwtaut.potentials import PotentialSpec
from gwtaut.series import Truncation, Variable
from gwtaut.target import TargetModel, projective_space
from gwtaut.trees import DecoratedTree, Decoration

P1 = projective_space(1)
P1_FIELDS = ("name", "gradings", "eta", "cup", "c1_degree", "divisor_pairings", "seeds")
P1_REPR = (
    "TargetModel(name='P1', gradings=(0, 2), "
    "eta=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1))), "
    "cup=(((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))), "
    "((Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(0, 1)))), "
    "c1_degree=2, divisor_pairings=((1, Fraction(1, 1)),), seeds=(((), 1, Fraction(1, 1)),))"
)
KAPPA = Decoration("kappa", (0, 1), 2)

# class, positional arguments, the same as keywords, golden repr
CASES = {
    "Variable": (
        Variable,
        ("s", -1, 1, 2),
        dict(kind="s", a=-1, alpha=1, grading=2),
        "Variable(kind='s', a=-1, alpha=1, grading=2)",
    ),
    "Truncation": (
        Truncation,
        ((3, 2),),
        dict(caps=(3, 2), total_cap=None),
        "Truncation(caps=(3, 2), total_cap=None)",
    ),
    "TargetModel": (
        TargetModel,
        tuple(getattr(P1, name) for name in P1_FIELDS),
        {name: getattr(P1, name) for name in P1_FIELDS},
        P1_REPR,
    ),
    "Decoration": (
        Decoration,
        ("kappa", (0, 1), 2),
        dict(kind="kappa", data=(0, 1), degree=2, pushable=False),
        "Decoration(kind='kappa', data=(0, 1), degree=2, pushable=False)",
    ),
    "DecoratedTree": (
        DecoratedTree,
        ((0, 1), ((1, 0),), ((3, 1), (1, 0), (2, 0)), ((0, KAPPA),)),
        dict(betas=(0, 1), edges=((0, 1),), tails=((1, 0), (2, 0), (3, 1)), decorations=((0, KAPPA),)),
        "DecoratedTree(betas=(0, 1), edges=((0, 1),), tails=((1, 0), (2, 0), (3, 1)), "
        "decorations=((0, Decoration(kind='kappa', data=(0, 1), degree=2, pushable=False)),))",
    ),
    "PotentialSpec": (
        PotentialSpec,
        (P1, ((0, 0), (0, 1)), ((-1, 1),), (3, 3, 3), 2),
        dict(target=P1, t_entries=((0, 0), (0, 1)), s_entries=((-1, 1),), caps=(3, 3, 3), q_cap=2),
        f"PotentialSpec(target={P1_REPR}, t_entries=((0, 0), (0, 1)), s_entries=((-1, 1),), "
        "caps=(3, 3, 3), q_cap=2, total_cap=None)",
    ),
}
NAMES = sorted(CASES)


def build(name):
    cls, args, _, _ = CASES[name]
    return cls(*args)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_golden(name):
    assert repr(build(name)) == CASES[name][3]


def test_repr_tells_a_true_token_from_a_one_token():
    assert repr(Decoration("ev", (1, True), 0)) != repr(Decoration("ev", (1, 1), 0))
    assert repr(Decoration("ev", (1, True), 0)).startswith("Decoration(kind='ev', data=(1, True)")


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_agree(name):
    cls, args, kwargs, _ = CASES[name]
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    _, *rest = kwargs
    assert cls(*args[:1], **{name: kwargs[name] for name in rest}) == by_keyword


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = build(name)
    field = next(iter(CASES[name][2]))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == CASES[name][3]


@pytest.mark.parametrize("name", NAMES)
def test_bad_arguments_raise_type_error(name):
    cls, args, kwargs, _ = CASES[name]
    first = next(iter(kwargs))
    with pytest.raises(TypeError, match="missing"):
        cls()
    with pytest.raises(TypeError, match="unknown or repeated"):
        cls(**kwargs, colour="red")
    with pytest.raises(TypeError, match="unknown or repeated"):
        cls(*args, **{first: kwargs[first]})
    with pytest.raises(TypeError, match="takes"):
        cls(*range(8))  # more than any record has fields


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_round_trip(name):
    record = build(name)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert copied == record and hash(copied) == hash(record)
        assert repr(copied) == repr(record)


LOAD_IN_ANOTHER_PROCESS = """
import json, pickle, sys
from gwtaut.correlators import evaluate, make_key
from gwtaut.target import projective_space
loaded, fresh = pickle.loads(sys.stdin.buffer.read()), projective_space(1)
evaluate(make_key(loaded, tau=[(0, 1, 3)], d=1))
before = evaluate.cache_info()
evaluate(make_key(fresh, tau=[(0, 1, 3)], d=1))
after = evaluate.cache_info()
print(json.dumps({
    "equal": loaded == fresh,
    "same_hash": hash(loaded) == hash(fresh),
    "in_a_set": len({loaded, fresh}),
    "hits": after.hits - before.hits,
    "misses": after.misses - before.misses,
}))
"""


def test_target_pickled_under_another_hash_seed_hits_the_memo():
    """String hashes differ between processes, so an unpickled target must
    hash afresh, or it misses every memo keyed by its target."""

    def python(hash_seed, script, stdin=b""):
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
            "PYTHONHASHSEED": hash_seed,
        }
        command = [sys.executable, "-c", script]
        return subprocess.run(command, env=env, input=stdin, capture_output=True, check=True).stdout

    dump = (
        "import pickle, sys; from gwtaut.target import projective_space; "
        "sys.stdout.buffer.write(pickle.dumps(projective_space(1)))"
    )
    report = json.loads(python("2", LOAD_IN_ANOTHER_PROCESS, python("1", dump)))
    assert report == {"equal": True, "same_hash": True, "in_a_set": 1, "hits": 1, "misses": 0}


def test_records_equal_only_records_of_their_class():
    assert Truncation((1,), None) != ((1,), None)
    assert Variable("t", 0, 1, 0) != ("t", 0, 1, 0)
    assert Truncation((1,), None).__eq__(((1,), None)) is NotImplemented
    assert Truncation((1,), 2) != Truncation((1,), None)
    assert Decoration("ev", (1, True), 0) == Decoration("ev", (1, 1), 0)  # as tuples are


def test_checks_still_run_after_construction():
    with pytest.raises(ValueError, match="kind"):
        Variable("u", 0, 0, 0)
    with pytest.raises(ValueError, match="caps"):
        Truncation(caps=[1])
    with pytest.raises(ValueError, match="divisor pairing"):
        TargetModel(**{**CASES["TargetModel"][2], "divisor_pairings": ((0, Fraction(1)),)})

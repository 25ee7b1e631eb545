"""The immutable value classes: repr, equality, hashing and read-only fields.

Each case gives a factory, a second factory whose instance must equal the
first, a third whose instance must not, and the expected repr with function
addresses masked.
"""
import json
import re
from fractions import Fraction

import pytest

from pascalinv.checks import CheckResult, RunConfig
from pascalinv.cli import main
from pascalinv.eigenstructure import CoordResult, EigenSpaceId
from pascalinv.oeis import LookupResult
from pascalinv.operators import LOWER, Band, DenseMat, TriOp
from pascalinv.sequences import (
    AltBernoulli,
    Bernoulli,
    ExpComb,
    FinSupp,
    InvarianceReport,
    KSeq,
    Lazy,
    check_invariance,
    fibonacci,
    geometric,
    lucas,
)
from pascalinv.transforms import Pipeline, Stage


def _first(i, j):
    return 1


def _second(i, j):
    return 2


def _run(seq, mode):
    return seq


def _other_run(seq, mode):
    return seq


_STAGE = Stage("s", _run, sets=("first", 1))

CASES = {
    "Band": (
        lambda: Band(None, 0),
        lambda: Band(None, 0),
        lambda: Band(0, None),
        "Band(below=None, above=0)",
    ),
    "TriOp": (
        lambda: TriOp(LOWER, _first, "P", ("P",)),
        lambda: TriOp(LOWER, _second, "P", ("P",)),
        lambda: TriOp(LOWER, _first, "Q", ("P",)),
        "TriOp('P', lower)",
    ),
    "DenseMat": (
        lambda: DenseMat.identity(2),
        lambda: DenseMat(2, 2, ((1, 0), (0, 1))),
        lambda: DenseMat.identity(3),
        "DenseMat(rows=2, cols=2, data=((1, 0), (0, 1)))",
    ),
    "FinSupp": (
        lambda: FinSupp([1, 2, 0]),
        lambda: FinSupp((1, 2)),
        lambda: FinSupp([1]),
        "FinSupp(terms=(1, 2))",
    ),
    "ExpComb": (
        lambda: geometric(Fraction(1, 2), 3),
        lambda: ExpComb([(Fraction(1, 4), 3), (Fraction(1, 4), 3)]),
        lambda: geometric(Fraction(1, 2), 2),
        "ExpComb(pairs=((Fraction(1, 2), 3),))",
    ),
    "Bernoulli": (Bernoulli, Bernoulli, AltBernoulli, "Bernoulli()"),
    "AltBernoulli": (AltBernoulli, AltBernoulli, KSeq, "AltBernoulli()"),
    "KSeq": (KSeq, KSeq, Bernoulli, "KSeq()"),
    "InvarianceReport": (
        lambda: check_invariance(lucas(), "first", 8),
        lambda: InvarianceReport("first", "invariant", 8, "exact-finite"),
        lambda: InvarianceReport("first", "invariant", 8, "exact-finite", 3),
        "InvarianceReport(kind='first', verdict='invariant', depth=8, "
        "mode='exact-finite', first_failure=None)",
    ),
    "EigenSpaceId": (
        lambda: EigenSpaceId("PD", 1),
        lambda: EigenSpaceId("PD", 1),
        lambda: EigenSpaceId("PTD", 1),
        "EigenSpaceId(operator='PD', eigenvalue=1)",
    ),
    "CoordResult": (
        lambda: CoordResult([1, 0], True, [0, 2]),
        lambda: CoordResult([1, 0], True, [0, 2]),
        lambda: CoordResult([1, 0], False, [0, 2]),
        "CoordResult(coefficients=[1, 0], residual_ok=True, pivot_rows=[0, 2])",
    ),
    "Stage": (
        lambda: Stage("s", _run, sets=("first", 1)),
        lambda: Stage("s", _run, ("first", 1), None),
        lambda: Stage("s", _other_run, sets=("first", 1)),
        "Stage(name='s', run=<function _run at 0x…>, sets=('first', 1), domain=None)",
    ),
    "Pipeline": (
        lambda: Pipeline((_STAGE,)),
        lambda: Pipeline((Stage("s", _run, sets=("first", 1)),)),
        lambda: Pipeline((_STAGE, _STAGE)),
        "Pipeline(steps=(Stage(name='s', run=<function _run at 0x…>, "
        "sets=('first', 1), domain=None),))",
    ),
    "RunConfig": (
        RunConfig,
        lambda: RunConfig(depth=32, mode="continued", seed=0),
        lambda: RunConfig(depth=8),
        "RunConfig(depth=32, mode='continued', seed=0)",
    ),
    "CheckResult": (
        lambda: CheckResult("a", True, 3, 1.5),
        lambda: CheckResult(name="a", passed=True, depth=3, elapsed_ms=1.5, detail=""),
        lambda: CheckResult("a", False, 3, 1.5),
        "CheckResult(name='a', passed=True, depth=3, elapsed_ms=1.5, detail='')",
    ),
    "LookupResult": (
        lambda: LookupResult([1, 1], [("A000012", "ones")], "cache"),
        lambda: LookupResult([1, 1], [("A000012", "ones")], "cache"),
        lambda: LookupResult([1, 1], [("A000012", "ones")], "fixture"),
        "LookupResult(query_prefix=[1, 1], matches=[('A000012', 'ones')], source='cache')",
    ),
}

# fields holding lists make the value unhashable, as for a frozen dataclass
UNHASHABLE = {"CoordResult", "LookupResult"}


def _masked(obj) -> str:
    return re.sub(r" at 0x[0-9a-f]+", " at 0x…", repr(obj))


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, _, _, want = CASES[name]
    assert _masked(make()) == want


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash(name):
    make, same, other = CASES[name][:3]
    a, b, c = make(), same(), other()
    assert a == b and not a != b
    assert a != c and not a == c
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        if type(c) is type(a):
            assert hash(a) != hash(c)


@pytest.mark.parametrize("name", CASES)
def test_fields_are_read_only(name):
    obj = CASES[name][0]()
    before = dict(vars(obj))
    for attr in list(before)[:1] + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, attr, 0)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert vars(obj) == before


def test_values_never_equal_other_classes():
    assert Band(None, 0) != (None, 0)
    assert not Band(None, 0) == (None, 0)
    assert FinSupp([1]) != (1,)
    assert Bernoulli() != AltBernoulli()


def test_lazy_compares_by_identity():
    oracle = lambda n: n  # noqa: E731
    a, b = Lazy(oracle), Lazy(oracle)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert _masked(a) == "Lazy(label='lazy')"
    assert _masked(Lazy(rows=lambda d: [0] * d, label="x")) == "Lazy(label='x')"
    assert list(vars(a)) == ["oracle", "label", "rows", "_head"]
    with pytest.raises(AttributeError):
        a.label = "other"


def test_eigenspace_id_validates_its_arguments():
    with pytest.raises(ValueError):
        EigenSpaceId("P", 1)
    with pytest.raises(ValueError):
        EigenSpaceId("PD", 2)


def test_triop_equality_ignores_entry():
    a = TriOp(LOWER, _first, "P")
    b = TriOp(LOWER, _second, "P")
    assert a == b and hash(a) == hash(b)
    assert a != TriOp(LOWER, _first, "P", ("P",))
    assert lucas() != fibonacci()


def test_check_json_key_order(capsys):
    assert main(["check", "lucas", "--kind", "first", "--depth", "8", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (
        '{"kind": "first", "verdict": "invariant", "depth": 8, '
        '"mode": "exact-finite", "first_failure": null}\n'
    )
    assert list(json.loads(out)) == ["kind", "verdict", "depth", "mode", "first_failure"]

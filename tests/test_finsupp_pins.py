"""Pinned behaviour of finitely supported sequences under every package operation.

Each case is a ``FinSupp`` input or an image of one: its pinned record holds
the support bound, the hash, the term values and the field of each term
(``r`` rational, ``q`` quadratic); an input also pins its ``repr``, which
shows the term types the caller gave.  Lazy images pin their first ten terms,
lists and reports their ``repr``.  The records in
``tests/fixtures/finsupp_pins.txt`` were taken from the tree before
finitely supported sequences kept integer numerators, so they hold that
change to the old values, hashes and equalities.  To rewrite them from a
tree whose outputs are trusted:

    PYTHONPATH=src python tests/test_finsupp_pins.py > tests/fixtures/finsupp_pins.txt
"""
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pascalinv.operators import make_operator, pd, ptd
from pascalinv.scalars import QuadExt
from pascalinv.sequences import (
    FinSupp,
    Lazy,
    apply_finite,
    apply_upper,
    check_invariance,
    difference,
    seq_add,
    seq_scale,
    shift_down,
    shift_up,
)
from pascalinv.transforms import build_phi, build_psi, orthogonality, t42a, t42b, t42c, t42d

F = Fraction
INPUTS = {
    "int": FinSupp([1, -2, 0, 3]),
    "fraction": FinSupp([F(1, 2), F(-2, 3), F(5, 6)]),
    "integral fraction": FinSupp([F(2), F(-4), F(6)]),
    "mixed": FinSupp([1, F(1, 2), -3, F(2, 3)]),
    "zero-tailed": FinSupp([F(1, 3), 2, 0, F(0), 0]),
    "empty": FinSupp([]),
    "sqrt5": FinSupp([1, QuadExt(0, 1, 5), F(1, 2)]),
}

INPUT_REPRS = {
    "int": "FinSupp(terms=(1, -2, 0, 3))",
    "fraction": "FinSupp(terms=(Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)))",
    "integral fraction": "FinSupp(terms=(Fraction(2, 1), Fraction(-4, 1), Fraction(6, 1)))",
    "mixed": "FinSupp(terms=(1, Fraction(1, 2), -3, Fraction(2, 3)))",
    "zero-tailed": "FinSupp(terms=(Fraction(1, 3), 2))",
    "empty": "FinSupp(terms=())",
    "sqrt5": "FinSupp(terms=(1, QuadExt(Fraction(0, 1), Fraction(1, 1), d=5), Fraction(1, 2)))",
}


def _images(name, x):
    """(case name, image) for every package operation on the input x."""
    yield name, x
    yield f"3·{name}", seq_scale(3, x)
    yield f"-1/2·{name}", seq_scale(F(-1, 2), x)
    yield f"0·{name}", seq_scale(0, x)
    yield f"{name}+mixed", seq_add(x, INPUTS["mixed"])
    yield f"{name}+itself", seq_add(x, x)
    yield f"{name}-itself", seq_add(x, seq_scale(-1, x))
    yield f"down {name}", shift_down(x)
    yield f"up {name}", shift_up(x)
    yield f"Δ {name}", difference(x)
    yield f"Δ² {name}", difference(x, 2)
    yield f"PTD {name}", apply_upper(ptd(), x)
    yield f"PTD² {name}", apply_upper(ptd(), apply_upper(ptd(), x))
    yield f"J(2)^-1 {name}", apply_upper(make_operator("Jinv", 2), x)
    yield f"J(-2/3)^-1 {name}", apply_upper(make_operator("Jinv", F(-2, 3)), x)
    yield f"PD·{name} to 6", apply_finite(pd(), x, 6)
    yield f"PD·{name} to 2", apply_finite(pd(), x, 2)
    for t in (t42a, t42b, t42c, t42d):
        yield f"{t.__name__} {name}", t(x)
    for build in (build_phi, build_psi):
        for variant in ("plain", "tilde"):
            for n in (1, 2, 3):
                yield f"{build.__name__}({n}, {variant}) {name}", build(n, variant).apply(x)
    yield f"second kind {name}", check_invariance(x, "second", 8)
    yield f"phitilde(3) {name} second kind", check_invariance(
        build_phi(3, "tilde").apply(x), "second", 12
    )
    for other in ("int", "fraction", "mixed"):
        yield f"⟨{name}, {other}⟩", orthogonality(x, INPUTS[other])


def _field(t) -> str:
    return "q" if isinstance(t, QuadExt) else "r"


def _record(obj) -> str:
    if isinstance(obj, FinSupp):
        ts = obj.terms
        values = ", ".join(map(str, ts))
        return f"{obj.support_bound} {hash(obj)} [{values}] {''.join(map(_field, ts))}"
    if isinstance(obj, Lazy):
        ts = obj.prefix(10)
        return f"lazy [{', '.join(map(str, ts))}] {''.join(map(_field, ts))}"
    if isinstance(obj, list):
        return repr(obj)
    if isinstance(obj, (int, Fraction, QuadExt)):
        return f"{obj} {_field(obj)}"
    return repr(obj)


def _cases():
    return [case for name, x in INPUTS.items() for case in _images(name, x)]


FIXTURE = Path(__file__).resolve().parent / "fixtures" / "finsupp_pins.txt"


def _pins() -> dict:
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    return dict(line.split(" :: ", 1) for line in lines)


@pytest.mark.parametrize("name", INPUTS)
def test_inputs_keep_their_terms_as_given(name):
    assert repr(INPUTS[name]) == INPUT_REPRS[name]


def test_every_image_matches_its_pinned_record():
    pins = _pins()
    got = {name: _record(obj) for name, obj in _cases()}
    assert list(got) == list(pins)
    for name in got:
        assert got[name] == pins[name], name


def test_equality_follows_the_values():
    finsupps = [(name, obj) for name, obj in _cases() if isinstance(obj, FinSupp)]
    for name, x in finsupps:
        for other, y in finsupps:
            assert (x == y) == (x.terms == y.terms), (name, other)
            if x == y:
                assert hash(x) == hash(y)
    for name, x in INPUTS.items():
        assert apply_upper(ptd(), apply_upper(ptd(), x)) == x
        assert shift_down(shift_up(x)) == x
        assert seq_add(x, seq_scale(-1, x)) == FinSupp(())
        assert x != x.terms


if __name__ == "__main__":
    sys.stdout.reconfigure(encoding="utf-8")
    for name, obj in _cases():
        print(f"{name} :: {_record(obj)}")

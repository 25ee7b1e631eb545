"""Pinned outcomes of QuadExt arithmetic and comparison across operand types and fields.

Every operator is applied to every pair of operands below in which at least one
side is a ``QuadExt`` (``**`` only with a ``QuadExt`` base, since ``QuadExt``
has no ``__rpow__``); the reflected methods are also called directly with a
``QuadExt`` as ``self``.  Each outcome is rendered as the result's type and
``repr`` (which names ``d``), or as the exception's type and message, and the
rendering must match ``tests/fixtures/quadext_coercion.txt`` line for line.
"""
import operator
from fractions import Fraction
from pathlib import Path

from pascalinv.scalars import QuadExt

TABLE = Path(__file__).parent / "fixtures" / "quadext_coercion.txt"

OPERANDS = {
    "int": -2,
    "int0": 0,
    "frac": Fraction(-3, 4),
    "float": 1.5,
    "q5": QuadExt(Fraction(1, 2), Fraction(1, 2), 5),
    "q5rat": QuadExt(3, 0, 5),
    "q3rat": QuadExt(Fraction(-2, 3), 0, 3),
    "q3": QuadExt(1, -2, 3),
    "zero": QuadExt(0, 0, 5),
}

BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "**": operator.pow,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}
REFLECTED = ("__radd__", "__rsub__", "__rmul__", "__rtruediv__")
UNARY = {"abs": abs, "sign": QuadExt.sign, "neg": operator.neg, "hash": hash}


def outcome(fn, *args) -> str:
    try:
        value = fn(*args)
    except Exception as exc:  # the pinned outcome is the exception itself
        return f"{type(exc).__name__}: {exc}"
    return f"{type(value).__name__} {value!r}"


def table() -> list:
    lines = []
    for ln, x in OPERANDS.items():
        for rn, y in OPERANDS.items():
            if not (isinstance(x, QuadExt) or isinstance(y, QuadExt)):
                continue
            for sym, fn in BINARY.items():
                if sym == "**" and not isinstance(x, QuadExt):
                    continue
                lines.append(f"{ln} {sym} {rn} -> {outcome(fn, x, y)}")
            if isinstance(x, QuadExt):
                for meth in REFLECTED:
                    lines.append(f"{ln}.{meth}({rn}) -> {outcome(getattr(x, meth), y)}")
        if isinstance(x, QuadExt):
            for name, fn in UNARY.items():
                lines.append(f"{name}({ln}) -> {outcome(fn, x)}")
    return lines


def test_coercion_table_matches_pinned_outcomes():
    assert table() == TABLE.read_text(encoding="utf-8").splitlines()

"""Pinned outcomes of ``parse_scalar`` over a grid of scalar literals.

Each literal is a rational part, a sign, a coefficient and a root (any of
them possibly empty or malformed), plus a few spellings with spaces.  Each
outcome is rendered as the result's type and ``repr``, or as the exception's
type and message, and the rendering must match
``tests/fixtures/scalar_literals.txt`` line for line.
"""
from itertools import product
from pathlib import Path

from pascalinv.scalars import parse_scalar

TABLE = Path(__file__).parent / "fixtures" / "scalar_literals.txt"

RATS = ("", "3", "-3", "+3", "1/2", "1/0", "3/")
SIGNS = ("", "+", "-", "+-")
COEFS = ("", "12", "1/2", "0", "1/0", "2/")
ROOTS = (
    "", "√5", "sqrt5", "√4", "√1", "√0", "√12", "√", "5√", "√5√5", "sqrt-5",
    "√100000000000000000",  # 18 digits, divisible by 4
    "√1000000000000000003",  # 19 digits
)
EXTRA = (" 3 + √5 ", "3 /2 √5", " ", "√ 5", "-1/2", "0", "3/2+1/2√5", "x")


def outcome(text: str) -> str:
    try:
        value = parse_scalar(text)
    except Exception as exc:  # the pinned outcome is the exception itself
        return f"{type(exc).__name__}: {exc}"
    return f"{type(value).__name__} {value!r}"


def literals() -> list:
    grid = ("".join(parts) for parts in product(RATS, SIGNS, COEFS, ROOTS))
    return list(dict.fromkeys((*grid, *EXTRA)))


def table() -> list:
    return [f"{text!r} -> {outcome(text)}" for text in literals()]


def test_grid_names_the_edge_literals():
    assert {"12√5", "-√5", "3-√5", "+3+√5", "1/0+√5", "3+", "5√"} <= set(literals())
    assert any(text.endswith("√" + "1" + "0" * 17 + "3") for text in literals())


def test_literal_table_matches_pinned_outcomes():
    assert table() == TABLE.read_text(encoding="utf-8").splitlines()

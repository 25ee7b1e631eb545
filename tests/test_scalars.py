import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pascalinv import scalars
from pascalinv.scalars import (
    QuadExt,
    _is_square_free,
    binomial,
    exact_div,
    format_scalar,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
    simplify,
)
from pascalinv.sequences import check_invariance, fibonacci, lucas

TAU1 = QuadExt(Fraction(1, 2), Fraction(1, 2))
TAU2 = QuadExt(Fraction(1, 2), Fraction(-1, 2))

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


def quadexts():
    return st.builds(lambda a, b: QuadExt(a, b, 5), rationals, rationals)


def test_golden_ratio_relations():
    assert TAU1 * TAU2 == -1
    assert TAU1 ** 2 == TAU1 + 1
    assert TAU1 ** 2 == QuadExt(Fraction(3, 2), Fraction(1, 2))
    assert TAU1 + TAU2 == 1


def test_plain_rational_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_binomial_conventions():
    assert binomial(4, 2) == 6
    assert binomial(2, 4) == 0
    assert binomial(7, 0) == 1
    assert binomial(3, -1) == 0
    assert binomial(-1, 0) == 0
    assert binomial(-1, -1) == 0


def test_pascal_rule():
    for i in range(1, 65):
        for j in range(i + 1):
            assert binomial(i, j) == binomial(i - 1, j) + binomial(i - 1, j - 1)


@given(quadexts())
def test_additive_inverse(x):
    assert x + (-x) == 0


@given(quadexts())
def test_multiplicative_inverse(x):
    if x == 0:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == 1
        assert 1 / x == x.inverse()


@given(quadexts())
def test_conjugation_norm(x):
    prod = x * x.conjugate()
    assert prod.is_rational
    assert prod.to_fraction() == x.a**2 - 5 * x.b**2


@given(quadexts(), quadexts())
def test_field_ops_close(x, y):
    for v in (x + y, x - y, x * y):
        assert isinstance(v, QuadExt)
    if y != 0:
        assert (x / y) * y == x


def test_mixed_arithmetic_promotes():
    assert TAU1 + Fraction(1, 2) == QuadExt(1, Fraction(1, 2))
    assert 2 * TAU1 == QuadExt(1, 1)
    assert Fraction(1, 2) - TAU2 == QuadExt(0, Fraction(1, 2))


def test_distinct_fields_do_not_mix():
    r2 = QuadExt(0, 1, 2)
    with pytest.raises(ValueError):
        _ = TAU1 + r2
    # rational-valued elements cross fields freely
    assert QuadExt(3, 0, 2) + TAU1 == QuadExt(Fraction(7, 2), Fraction(1, 2), 5)


def test_d_validation():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 4)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 12)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 1)


def test_ordering_by_real_value():
    assert TAU2 < 0 < 1 < TAU1 < 2
    assert TAU1 > Fraction(8, 5)
    assert abs(TAU2) == -TAU2
    assert sorted([TAU1, TAU2, Fraction(1)]) == [TAU2, Fraction(1), TAU1]


def test_rational_equivalence_and_hash():
    x = QuadExt(Fraction(3, 2), 0)
    assert x == Fraction(3, 2)
    assert hash(x) == hash(Fraction(3, 2))
    assert simplify(x) == Fraction(3, 2)
    assert isinstance(simplify(x), Fraction)
    assert simplify(TAU1) is TAU1
    with pytest.raises(ValueError, match="√5 is irrational"):
        QuadExt(0, 1, 5).to_fraction()


def test_truth_value_is_nonzero():
    zero = QuadExt(1, 1, 5) - QuadExt(1, 1, 5)
    assert zero == 0 and not zero
    assert not QuadExt(0, 0, 2)
    assert QuadExt(Fraction(3, 2), 0)  # rational-valued, nonzero
    assert QuadExt(0, Fraction(-1, 3), 7)
    assert TAU1 and TAU2
    assert not any([zero, Fraction(0), 0]) and any([zero, TAU2 - TAU2, QuadExt(-1)])


@given(quadexts())
def test_truth_value_matches_comparison_with_zero(x):
    assert bool(x) == (x != 0)
    assert not (x - x)


def test_integer_powers():
    assert TAU1**0 == 1
    assert TAU1**-1 == TAU1.inverse()
    assert TAU1**5 * TAU1**-5 == 1
    assert QuadExt(0, 0) ** 0 == 1


def test_exact_div_never_floats():
    assert exact_div(1, 3) == Fraction(1, 3)
    assert exact_div(1, TAU1) == TAU1.inverse()
    assert isinstance(exact_div(2, 4), Fraction)


@pytest.mark.parametrize(
    "text,value",
    [
        ("7", Fraction(7)),
        ("-2/3", Fraction(-2, 3)),
        ("√5", QuadExt(0, 1)),
        ("-√5", QuadExt(0, -1)),
        ("1/2√5", QuadExt(0, Fraction(1, 2))),
        ("3/2+1/2√5", TAU1 + 1),
        ("1/2-1/2√5", TAU2),
        ("sqrt5", QuadExt(0, 1)),
        ("1/2+1/2sqrt5", TAU1),
    ],
)
def test_parse_scalar(text, value):
    assert parse_scalar(text) == value


def test_parse_scalar_rejects_garbage():
    for bad in ("", "one", "1//2", "sqrt", "1+", "sqrt5+1"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


@given(quadexts())
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


@given(rationals)
def test_json_round_trip_rational(q):
    assert scalar_from_json(scalar_to_json(q)) == q


def test_json_round_trip_quadratic():
    enc = scalar_to_json(TAU1)
    assert enc == {
        "a": {"num": "1", "den": "2"},
        "b": {"num": "1", "den": "2"},
        "d": 5,
    }
    assert scalar_from_json(enc) == TAU1


def test_square_free_test_matches_the_definition():
    # d is square-free when no p*p with p >= 2 divides it: sieve those multiples
    n = 10**5
    square_free = [True] * n
    for p in range(2, isqrt(n - 1) + 1):
        for m in range(0, n, p * p):
            square_free[m] = False
    assert [_is_square_free(d) for d in range(1, n)] == square_free[1:]


FIELDS = (2, 3, 5, 7, 13)


def same_field_pairs():
    """Two elements of one Q(sqrt d), d drawn from FIELDS."""
    def pair(d):
        element = st.builds(lambda a, b: QuadExt(a, b, d), rationals, rationals)
        return st.tuples(element, element)

    return st.sampled_from(FIELDS).flatmap(pair)


def reference_sign(a, b, d) -> int:
    """Sign of a + b*sqrt(d): with a and b of opposite signs, a*a against d*b*b decides."""
    def sgn(t):
        return (t > 0) - (t < 0)

    if sgn(a) * sgn(b) >= 0:
        return sgn(a) or sgn(b)
    return sgn(a) if a * a > d * b * b else sgn(b)


@given(same_field_pairs())
def test_field_axioms_in_other_fields(pair):
    x, y = pair
    d = x.d
    assert x + (-x) == 0
    prod = x * x.conjugate()
    assert prod.is_rational and prod.to_fraction() == x.a**2 - d * x.b**2
    for v in (x + y, x - y, x * y):
        assert isinstance(v, QuadExt) and v.d == d
    if y == 0:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    else:
        assert y * y.inverse() == 1 and 1 / y == y.inverse()
        assert (x / y) * y == x


@given(same_field_pairs(), rationals)
def test_sign_and_order_in_other_fields(pair, q):
    x, y = pair
    d = x.d
    assert x.sign() == reference_sign(x.a, x.b, d)
    assert (x < y) == (reference_sign(x.a - y.a, x.b - y.b, d) < 0)
    assert (x < q) == (reference_sign(x.a - q, x.b, d) < 0)
    assert (q < x) == (reference_sign(q - x.a, -x.b, d) < 0)


def test_arithmetic_results_skip_the_square_free_test(monkeypatch):
    calls = []
    validate = scalars._is_square_free
    monkeypatch.setattr(scalars, "_is_square_free", lambda d: calls.append(d) or validate(d))
    lucas().prefix(64)
    check_invariance(fibonacci(), "first", 32)
    assert calls == []


@pytest.mark.parametrize("digits", [4299, 4300, 4301, 9000, 20001])
def test_values_past_the_int_str_digit_limit_render_in_full(digits):
    # Python 3.11 refuses str() of an int with more than 4300 digits by default
    big = 10 ** (digits - 1) + 7
    frac = Fraction(-big, 3)
    text = format_scalar(frac)
    assert len(text) == digits + 3 and text.startswith("-1") and text.endswith("7/3")
    assert text[1:-2].lstrip("0") == text[1:-2]
    quad = format_scalar(QuadExt(Fraction(1, 2), big, 5))
    assert quad.startswith("1/2+1") and quad.endswith("7√5") and len(quad) == digits + 6
    encoded = scalar_to_json(frac)
    assert (len(encoded["num"]), encoded["den"]) == (digits + 1, "3")
    assert scalars._int_str(big).count("0") == digits - 2


@pytest.mark.parametrize("digits", [4301, 5000, 100000])
def test_values_past_the_int_str_digit_limit_round_trip(digits):
    # Python 3.11 refuses int() of a string of more than 4300 digits by default
    rng = random.Random(digits)
    big = rng.randrange(10 ** (digits - 1), 10 ** digits)
    values = [big, -big, Fraction(-big, 3), Fraction(1, big),
              QuadExt(Fraction(1, 2), big, 5), QuadExt(-big, Fraction(big, 7), 2)]
    for x in values:
        assert parse_scalar(format_scalar(x)) == x
        assert scalar_from_json(scalar_to_json(x)) == x


def test_a_100000_digit_literal_parses_in_under_a_second():
    text = "-" + "9" * 100000 + "/7"
    start = time.perf_counter()
    value = parse_scalar(text)
    assert time.perf_counter() - start < 1
    assert value == Fraction(-(10 ** 100000 - 1), 7)


@pytest.mark.parametrize("text", ["12a", "", "-", "1" * 700 + "x"])
def test_malformed_json_digits_still_raise_value_error(text):
    with pytest.raises(ValueError):
        scalar_from_json({"num": text, "den": "1"})

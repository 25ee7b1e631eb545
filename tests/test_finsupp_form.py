"""Finitely supported sequences on integer numerators, against Fraction references.

A rational ``FinSupp`` is held as integer numerators over one denominator,
and every package operation on it computes on that form.  Each property test
below draws rational terms with zero tails and denominators up to 12, runs
an operation, and compares the result with the same operation written here
term by term in ``Fraction`` arithmetic.  An image the package builds has int
terms when all its terms are integers and Fraction terms otherwise.
"""
import random
from fractions import Fraction
from math import comb

from hypothesis import given
from hypothesis import strategies as st

from pascalinv import checks
from pascalinv.eigenstructure import ptdown, qtdown00
from pascalinv.operators import make_operator, pd, ptd
from pascalinv.sequences import (
    FinSupp,
    apply_finite,
    apply_upper,
    check_invariance,
    difference,
    seq_add,
    seq_scale,
    shift_down,
    shift_up,
)
from pascalinv.transforms import build_phi, orthogonality

rationals = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@st.composite
def finsupps(draw):
    """(terms, x): Fraction terms with a zero tail and a FinSupp of the same
    values, built from the terms or, as an image is, from integer numerators."""
    ts = draw(st.lists(rationals, max_size=8)) + [0] * draw(st.integers(0, 3))
    x = FinSupp(ts)
    if draw(st.booleans()):
        x = shift_down(shift_up(x))
    return [Fraction(t) for t in ts], x


nonzero = rationals.filter(lambda c: c != 0)


def _stripped(ts):
    ts = list(ts)
    while ts and ts[-1] == 0:
        ts.pop()
    return ts


def _matches(got, want):
    """got is a FinSupp with the values of the Fraction list want, equal to
    and hashing as the FinSupp of want, its terms ints when all are integers
    and Fractions otherwise."""
    want = _stripped(want)
    assert got == FinSupp(want) and hash(got) == hash(FinSupp(want))
    assert list(got.terms) == want and got.support_bound == len(want)
    integral = all(t.denominator == 1 for t in want)
    assert all(type(t) is (int if integral else Fraction) for t in got.terms), got


def _padded(ts, n):
    return ts + [Fraction(0)] * (n - len(ts))


def _ptd_rows(ts, depth):
    return [sum((comb(k, n) * (-1) ** k * ts[k] for k in range(n, len(ts))), Fraction(0))
            for n in range(depth)]


@given(finsupps(), rationals)
def test_scale(x, c):
    ts, x = x
    _matches(seq_scale(c, x), [Fraction(c) * t for t in ts])


@given(finsupps(), finsupps())
def test_add(x, y):
    (xs, x), (ys, y) = x, y
    n = max(len(xs), len(ys))
    _matches(seq_add(x, y), [a + b for a, b in zip(_padded(xs, n), _padded(ys, n))])


@given(finsupps())
def test_shifts_and_difference(x):
    ts, x = x
    _matches(shift_down(x), ts[1:])
    _matches(shift_up(x), [Fraction(0)] + ts)
    _matches(difference(x), [b - a for a, b in zip(ts, ts[1:] + [0])])


@given(finsupps(), nonzero)
def test_upper_images(x, a):
    ts, x = x
    n = len(_stripped(ts))
    _matches(apply_upper(ptd(), x), _ptd_rows(ts, n))
    ys = [Fraction(0)] * (n + 1)
    for i in reversed(range(n)):
        ys[i] = (ts[i] - ys[i + 1]) / Fraction(a)
    _matches(apply_upper(make_operator("Jinv", a), x), ys[:n])


@given(finsupps(), st.integers(min_value=1, max_value=12))
def test_apply_finite(x, depth):
    ts, x = x
    xs = _padded(ts, depth)
    want = [sum(comb(n, k) * (-1) ** k * xs[k] for k in range(n + 1)) for n in range(depth)]
    assert apply_finite(pd(), x, depth) == want


@given(finsupps())
def test_projection_stages(x):
    ts, x = x
    b = len(_stripped(ts))
    for variant, op, rows in (("plain", ptdown(), 2 * b - 1), ("tilde", qtdown00(), 2 * b)):
        want = [sum((op.entry(i, k) * ts[k] for k in range(b)), Fraction(0))
                for i in range(max(rows, 0))]
        _matches(build_phi(1, variant).apply(x), want)


@given(finsupps(), st.integers(min_value=1, max_value=12), st.sampled_from((1, -1)))
def test_second_kind_verdict(x, depth, sign):
    ts, x = x
    # x + sign·PTD·x lies in the sign's eigenspace; x itself rarely does
    ys = [a + sign * b for a, b in zip(_padded(ts, len(ts)), _ptd_rows(ts, len(ts)))]
    for terms, seq in ((ts, x), (ys, seq_add(x, seq_scale(sign, apply_upper(ptd(), x))))):
        xs, image = _padded(terms, depth)[:depth], _ptd_rows(terms, depth)
        plus = next((i for i in range(depth) if image[i] != xs[i]), None)
        minus = next((i for i in range(depth) if image[i] != -xs[i]), None)
        verdict = ("invariant" if plus is None else "inverse-invariant" if minus is None
                   else "neither")
        report = check_invariance(seq, "second", depth)
        assert report.verdict == verdict
        assert report.first_failure == (None if plus is None or minus is None
                                        else max(plus, minus))


@given(finsupps(), finsupps())
def test_orthogonality_and_equality(x, y):
    (xs, x), (ys, y) = x, y
    assert orthogonality(x, y) == sum(a * (-1) ** n * b for n, (a, b) in enumerate(zip(xs, ys)))
    assert (x == y) == (_stripped(xs) == _stripped(ys))
    if x == y:
        assert hash(x) == hash(y)
    assert x == FinSupp(xs) and hash(x) == hash(FinSupp(xs))


def test_random_finsupps_keep_their_draws():
    """checks._random_finsupp puts into integer form the draws it made as
    Fractions, Fraction(randint(-3, 3), choice((1, 1, 2, 3))) per term."""
    for seed in range(40):
        rng, old = random.Random(seed), random.Random(seed)
        for max_len in (8, 5):
            n = old.randint(1, max_len)
            want = [Fraction(old.randint(-3, 3), old.choice((1, 1, 2, 3))) for _ in range(n)]
            assert checks._random_finsupp(rng, max_len) == FinSupp(want)
        assert rng.random() == old.random()


def _fractions_built(monkeypatch, run) -> int:
    built, new = [], Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
    try:
        run()
    finally:
        monkeypatch.undo()
    return len(built)


def test_finite_support_checks_build_no_fraction(monkeypatch):
    cfg = checks.RunConfig(depth=24, seed=3)
    for check in (checks.check_ptd_involution, checks.check_binomial_involution):
        assert _fractions_built(monkeypatch, lambda: all(check(cfg))) == 0


def test_phitilde_images_and_verdicts_build_no_fraction_per_term(monkeypatch):
    """phitilde(3) of a rational FinSupp and its verdict build the same few
    Fractions (the J(2)^-1 operator's) whatever the support."""
    counts = []
    for b in (5, 40):
        x = FinSupp([Fraction((-1) ** k * (k + 1), 6) for k in range(b)])

        def run():
            y = build_phi(3, "tilde").apply(x)
            assert check_invariance(y, "second", 2 * b).verdict == "inverse-invariant"

        counts.append(_fractions_built(monkeypatch, run))
    assert counts[0] == counts[1] < 10


def test_a_short_prefix_of_a_lazy_image_keeps_its_own_denominator():
    """A lazy image's prefix shorter than its FinSupp input reads the input's
    prefix over that prefix's own denominator, so its terms are typed as
    before: ints here, as the first two terms of the input are."""
    got = apply_upper(make_operator("P"), FinSupp([1, 2, Fraction(1, 2)])).prefix(2)
    assert got == [1, 3] and [type(t) for t in got] == [int, int]

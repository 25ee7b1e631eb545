"""Invariance verdicts against independent references and the paper's identities.

``check_invariance`` must agree with a two-scan reference written here from
the definitions: the image is Σ_k C(n,k)(-1)^k x_k (first kind) or
Σ_{k>=n} C(k,n)(-1)^k x_k (second kind, summed directly for finite support
and by the geometric closed form otherwise), and the verdict compares it
with +x and then -x.  The property tests check that x ± PD·x and x ± PTD·x
land in the ±1 eigenspaces, as the involutions PD² = (PTD)² = I require.
"""
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pascalinv import sequences
from pascalinv.errors import DivergentSumError, UnsupportedSequenceError
from pascalinv.operators import pd, ptd
from pascalinv.scalars import QuadExt, scalar_cmp
from pascalinv.sequences import (
    TAU1,
    TAU2,
    AltBernoulli,
    Bernoulli,
    ExpComb,
    FinSupp,
    InvarianceReport,
    KSeq,
    Lazy,
    _row_sums,
    apply_finite,
    apply_upper,
    check_invariance,
    fibonacci,
    lucas,
    prefix,
    seq_add,
    seq_scale,
)

MODES = ("continued", "classical")


def _image(seq, kind, depth):
    """The transformed prefix, straight from the defining sums."""
    if kind == "first":
        xs = prefix(seq, depth)
        return [sum(comb(n, k) * (-1) ** k * xs[k] for k in range(n + 1)) for n in range(depth)]
    if isinstance(seq, FinSupp):
        ts = seq.terms
        return [
            sum(comb(k, n) * (-1) ** k * ts[k] for k in range(n, len(ts))) for n in range(depth)
        ]
    # sum_{k>=n} C(k,n) (-r)^k = (-r)^n / (1+r)^(n+1)
    return [sum(c * (-r) ** n / (1 + r) ** (n + 1) for c, r in seq.pairs) for n in range(depth)]


def _reference(seq, kind, depth, mode):
    """(verdict, first_failure, mode) by two independent scans, and the two
    first-mismatch indices."""
    xs, ys = prefix(seq, depth), _image(seq, kind, depth)
    plus = next((i for i in range(depth) if ys[i] != xs[i]), None)
    minus = next((i for i in range(depth) if ys[i] != -xs[i]), None)
    if kind == "first" or isinstance(seq, FinSupp):
        label = "exact-finite"
    else:
        label = "closed-form" if mode == "continued" else "classical-partial-sum"
    if plus is None:
        return ("invariant", None, label), (plus, minus)
    if minus is None:
        return ("inverse-invariant", None, label), (plus, minus)
    return ("neither", max(plus, minus), label), (plus, minus)


def _fraction(rng, span=3):
    return Fraction(rng.randint(-span, span), rng.choice((1, 2, 3)))


def _seeded_inputs(rng):
    """Sequences of every class, with some members of each eigenspace among them."""
    seqs = []
    for _ in range(60):
        terms = [_fraction(rng) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.5:
            terms[0] = 0  # then the -x scan also passes index 0
        seqs.append(FinSupp(tuple(terms)))
    # second-kind eigenvectors: (0,...,0, C(j,0..j)) and (0,...,0, C(j+1,t) + C(j,t-1))
    for j in range(4):
        plus = [0] * j + [comb(j, t) for t in range(j + 1)]
        minus = [0] * j + [comb(j + 1, t) + (comb(j, t - 1) if t else 0) for t in range(j + 2)]
        seqs += [FinSupp(tuple(plus)), FinSupp(tuple(minus))]
        seqs.append(FinSupp(tuple(plus + [0] * rng.randint(0, 3) + [1])))
    for _ in range(25):
        ratios = [Fraction(rng.randint(-5, 5), rng.choice((2, 3, 4, 6))) for _ in range(3)]
        seqs.append(ExpComb(tuple((_fraction(rng), r) for r in ratios if r != -1)))
    for _ in range(10):
        ratios = rng.sample((TAU1, TAU2, -TAU2, QuadExt(0, Fraction(1, 3))), rng.randint(1, 2))
        pairs = [(QuadExt(_fraction(rng), _fraction(rng)), r) for r in ratios]
        seqs.append(ExpComb(tuple(pairs)))
    seqs += [fibonacci(), lucas(), ExpComb(((1, Fraction(1, 2)),))]
    seqs += [Bernoulli(), AltBernoulli(), KSeq()]
    for _ in range(5):
        coeffs = [_fraction(rng) for _ in range(3)]
        oracle = lambda n, a=coeffs: a[0] + a[1] * n + a[2] * n * n
        seqs.append(Lazy(oracle=oracle, label="quadratic"))
    return seqs


def _classical_converges(seq):
    return all(scalar_cmp(r * r, 1) < 0 for _, r in seq.pairs)


def test_verdicts_match_two_scan_reference():
    rng = random.Random(8)
    verdicts, orders = set(), set()
    for seq in _seeded_inputs(rng):
        for kind in ("first", "second"):
            for mode in MODES:
                depth = rng.choice((1, 2, 5, 9, 14))
                if kind == "second" and not isinstance(seq, (FinSupp, ExpComb)):
                    with pytest.raises(UnsupportedSequenceError):
                        check_invariance(seq, kind, depth, mode)
                    continue
                if kind == "second" and isinstance(seq, ExpComb) and mode == "classical" \
                        and not _classical_converges(seq):
                    with pytest.raises(DivergentSumError):
                        check_invariance(seq, kind, depth, mode)
                    continue
                report = check_invariance(seq, kind, depth, mode)
                wanted, (plus, minus) = _reference(seq, kind, depth, mode)
                got = (report.verdict, report.first_failure, report.mode)
                assert got == wanted, (seq, kind, depth, mode)
                verdicts.add(report.verdict)
                if isinstance(seq, FinSupp) and report.verdict == "neither" and plus != minus:
                    orders.add(plus < minus)
    assert verdicts == {"invariant", "inverse-invariant", "neither"}
    # each of the two scans is sometimes the one that fails last
    assert orders == {True, False}


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
ratios = small_fractions.filter(lambda r: r != -1)
quad_ratios = st.builds(QuadExt, small_fractions, small_fractions).filter(lambda r: r != -1)
finsupps = st.lists(small_fractions, min_size=1, max_size=8).map(lambda ts: FinSupp(tuple(ts)))
rational_combs = st.lists(st.tuples(small_fractions, ratios), min_size=1, max_size=3).map(
    lambda ps: ExpComb(tuple(ps))
)
quad_combs = st.lists(
    st.tuples(st.builds(QuadExt, small_fractions, small_fractions), quad_ratios),
    min_size=1,
    max_size=2,
).map(lambda ps: ExpComb(tuple(ps)))
oracles = st.lists(small_fractions, min_size=1, max_size=4).map(
    lambda a: Lazy(oracle=lambda n: sum(c * n**i for i, c in enumerate(a)), label="polynomial")
)
every_class = st.one_of(
    finsupps, rational_combs, quad_combs, oracles,
    st.sampled_from((Bernoulli(), AltBernoulli(), KSeq(), fibonacci(), lucas())),
)


def _assert_in_eigenspaces(x, image, kind, depth, mode):
    plus = check_invariance(seq_add(x, image), kind, depth, mode)
    assert plus.verdict == "invariant"
    y = seq_add(x, seq_scale(-1, image))
    minus = check_invariance(y, kind, depth, mode)
    assert minus.verdict == "inverse-invariant" or not any(prefix(y, depth))


@given(every_class, st.integers(min_value=1, max_value=14), st.sampled_from(MODES))
def test_x_plus_minus_pd_x_lies_in_pd_eigenspaces(x, depth, mode):
    image = Lazy(rows=lambda d: apply_finite(pd(), x, d), label="PD·x")
    _assert_in_eigenspaces(x, image, "first", depth, mode)


@given(st.one_of(finsupps, rational_combs, quad_combs), st.integers(min_value=1, max_value=14))
def test_x_plus_minus_ptd_x_lies_in_ptd_eigenspaces(x, depth):
    image = apply_upper(ptd(), x, "continued")
    _assert_in_eigenspaces(x, image, "second", depth, "continued")


# --- the integer verdict path -------------------------------------------------
# Rational verdicts compare row numerators with prefix numerators over one
# common denominator.  Each report must equal the one read off the Fraction
# images: the kernel's normalised rows for the first kind, and the
# second-kind image of apply_upper.


def _report_from_images(seq, kind, depth, mode):
    xs = prefix(seq, depth)
    if kind == "first":
        image = _row_sums(pd(), xs, depth)
    else:
        image = apply_upper(ptd(), seq, mode).prefix(depth)
    plus = next((i for i in range(depth) if image[i] != xs[i]), None)
    minus = next((i for i in range(depth) if image[i] != -xs[i]), None)
    verdict = "invariant" if plus is None else "inverse-invariant" if minus is None else "neither"
    failure = None if plus is None or minus is None else max(plus, minus)
    # the inputs here are all judged exactly: first kind, or a FinSupp
    return InvarianceReport(kind, verdict, depth, "exact-finite", failure)


ints = st.integers(min_value=-6, max_value=6)
rationals = st.one_of(ints, small_fractions, small_fractions.map(lambda q: Fraction(q.numerator)))
TERM_KINDS = {"int": ints, "fraction": small_fractions, "mixed": rationals}
rational_terms = st.sampled_from(sorted(TERM_KINDS)).flatmap(
    lambda kind: st.lists(TERM_KINDS[kind], max_size=12)
)
rational_finsupps = rational_terms.map(lambda ts: FinSupp(tuple(ts)))
rational_prefixes = rational_terms.map(
    lambda ts: Lazy(rows=lambda d: (ts + [0] * d)[:d], label="rational prefix")
)
depths = st.integers(min_value=1, max_value=12)


@given(st.one_of(rational_finsupps, rational_prefixes), depths)
def test_first_kind_integer_verdicts_match_the_fraction_images(x, depth):
    assert check_invariance(x, "first", depth) == _report_from_images(x, "first", depth, "continued")


@given(rational_finsupps, depths, st.sampled_from(MODES))
def test_second_kind_integer_verdicts_match_the_fraction_images(x, depth, mode):
    # the support lies above the depth as often as below it
    report = check_invariance(x, "second", depth, mode)
    assert report == _report_from_images(x, "second", depth, mode)


@given(st.one_of(rational_finsupps, rational_prefixes), depths, st.sampled_from((1, -1)))
def test_x_plus_minus_pd_x_integer_verdicts_match_the_fraction_images(x, depth, sign):
    image = Lazy(rows=lambda d: apply_finite(pd(), x, d), label="PD·x")
    y = seq_add(x, seq_scale(sign, image))
    report = check_invariance(y, "first", depth)
    assert report == _report_from_images(y, "first", depth, "continued")
    assert report.verdict == ("invariant" if sign == 1 or not any(prefix(y, depth))
                              else "inverse-invariant")


@given(rational_finsupps, depths, st.sampled_from((1, -1)), st.sampled_from(MODES))
def test_x_plus_minus_ptd_x_integer_verdicts_match_the_fraction_images(x, depth, sign, mode):
    y = seq_add(x, seq_scale(sign, apply_upper(ptd(), x, mode)))
    report = check_invariance(y, "second", depth, mode)
    assert report == _report_from_images(y, "second", depth, mode)
    assert report.verdict == ("invariant" if sign == 1 or not any(prefix(y, depth))
                              else "inverse-invariant")


def _spy_kernel(monkeypatch):
    """Record the denominator of each kernel call, and count the Fractions
    built while the spy is on."""
    dens, built = [], []
    numerators, new = sequences._row_numerators, Fraction.__new__

    def spy_numerators(op, xs, depth):
        out = numerators(op, xs, depth)
        dens.append(out[2])
        return out

    def spy_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(sequences, "_row_numerators", spy_numerators)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy_new))
    return dens, built


def test_a_rational_first_kind_verdict_builds_no_fraction_per_row(monkeypatch):
    seqs = [FinSupp((Fraction(1, 2), Fraction(-2, 3), 5)), KSeq(), Bernoulli()]
    for seq in seqs:
        prefix(seq, 24)  # warm the term caches
    dens, built = _spy_kernel(monkeypatch)
    reports = [check_invariance(seq, "first", 24) for seq in seqs]
    monkeypatch.undo()
    assert built == []
    assert len(dens) == 3 and all(isinstance(den, int) and den > 1 for den in dens)
    assert [r.verdict for r in reports] == ["neither", "inverse-invariant", "neither"]


def test_a_quadratic_first_kind_verdict_keeps_the_field_rows(monkeypatch):
    dens, _ = _spy_kernel(monkeypatch)
    report = check_invariance(lucas(), "first", 16)
    monkeypatch.undo()
    assert dens == [None]
    assert report.verdict == "invariant"

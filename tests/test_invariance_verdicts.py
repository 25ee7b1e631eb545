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
from hypothesis import given, settings
from hypothesis import strategies as st

from pascalinv import sequences
from pascalinv.eigenstructure import BASIS_MATRICES
from pascalinv.errors import DivergentSumError, UnsupportedSequenceError
from pascalinv.operators import make_operator, pd, ptd
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
    difference,
    fibonacci,
    lucas,
    prefix,
    seq_add,
    seq_scale,
    shift_down,
    shift_up,
)
from pascalinv.transforms import build_psi, t42c, t42d

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
    prefix(AltBernoulli(), 25)
    # images built cold: nothing of them is evaluated before the spy is on
    seqs += [
        ExpComb(((Fraction(2), Fraction(-1, 3)), (Fraction(2), Fraction(4, 3)))),
        t42c(KSeq()),
        t42d(AltBernoulli()),
        build_psi(3, "tilde").apply(FinSupp((Fraction(1, 2), Fraction(-2, 3), 5))),
    ]
    # J(1/2) sums its rows with the entry 1/2, one Fraction per row: its prefix
    # is built before the spy, and the verdict must read it in integer form
    half = sequences._image(make_operator("J", Fraction(1, 2)), KSeq())
    prefix(half, 24)
    seqs.append(half)
    dens, built = _spy_kernel(monkeypatch)
    reports = [check_invariance(seq, "first", 24) for seq in seqs]
    monkeypatch.undo()
    assert built == []
    # one kernel call per verdict, and one per matrix stage of the psi image
    assert len(dens) == len(seqs) + 2
    assert all(isinstance(den, int) and den > 1 for den in dens)
    assert [r.verdict for r in reports] == [
        "neither", "inverse-invariant", "neither",
        "invariant", "invariant", "inverse-invariant", "inverse-invariant", "neither",
    ]


def test_a_quadratic_first_kind_verdict_keeps_the_field_rows(monkeypatch):
    dens, _ = _spy_kernel(monkeypatch)
    report = check_invariance(lucas(), "first", 16)
    monkeypatch.undo()
    assert dens == [None]
    assert report.verdict == "invariant"


# --- one integer form from term oracle to verdict ----------------------------
# Term oracles and the package's lazy images hand a prefix on as integer
# numerators over one denominator (``Nums``).  Each input below is checked
# three ways: the form read back as terms, the public prefix against a
# reference built from plain term lists, and the verdict against the one read
# off the Fraction images.

rational_exp_combs = st.lists(
    st.tuples(rationals.filter(bool), st.one_of(st.just(0), ints, small_fractions)),
    min_size=1, max_size=3,
).map(lambda ps: ExpComb(tuple(ps)))
FAMILIES = (Bernoulli(), AltBernoulli(), KSeq())
# PD and the basis matrices; J(a) reads one term past each row, and off the
# integers for a = 1/2
IMAGE_OPS = [pd] + [BASIS_MATRICES[key] for key in sorted(BASIS_MATRICES)] + [
    lambda: make_operator("J", 2), lambda: make_operator("J", Fraction(1, 2))]


def _listed(ts):
    return lambda d: (list(ts) + [0] * d)[:d]


def _by_terms(seq):
    return lambda d: [seq.term(n) for n in range(d)]


# (seq, ref) pairs, ref(d) the first d terms from independent term lists
bases = st.one_of(
    rational_terms.map(lambda ts: (FinSupp(tuple(ts)), _listed(ts))),
    rational_terms.map(lambda ts: (Lazy(rows=_listed(ts), label="rational prefix"), _listed(ts))),
    st.one_of(rational_exp_combs, st.sampled_from(FAMILIES)).map(lambda s: (s, _by_terms(s))),
)


def _entry_rows(op, ref):
    def rows(d):
        xs = ref(d + op.band.above)
        return [sum((op.entry(i, k) * xs[k] for k in op.band.span(i, len(xs))), 0)
                for i in range(d)]
    return rows


def _halved(ref):
    def rows(d):
        out = [0] * d
        for n, t in enumerate(ref(d - 1) if d else []):
            out[n + 1] = (out[n] + t) * Fraction(1, 2)
        return out
    return rows


def _next_pairs(ref):
    # (x_n, x_{n+1}) for n < d
    return lambda d: list(zip(ref(d + 1), ref(d + 1)[1:]))


def _step(name, draw, s, ref):
    """One image of s and the reference rule for its prefix."""
    if name == "scale":
        c = draw(rationals)
        return seq_scale(c, s), lambda d: [c * t for t in ref(d)]
    if name == "add":
        other, oref = draw(bases)
        return seq_add(s, other), lambda d: [a + b for a, b in zip(ref(d), oref(d))]
    if name == "down":
        return shift_down(s), lambda d: ref(d + 1)[1:]
    if name == "up":
        return shift_up(s), lambda d: [0] + ref(d - 1) if d else []
    if name == "difference":
        return difference(s), lambda d: [b - a for a, b in _next_pairs(ref)(d)]
    if name == "image":
        op = draw(st.sampled_from(IMAGE_OPS))()
        return sequences._image(op, s), _entry_rows(op, ref)
    if name == "t42c":
        return t42c(s), _halved(ref)
    return t42d(s), lambda d: [2 * b - a for a, b in _next_pairs(ref)(d)]


STEPS = ("scale", "add", "down", "up", "difference", "image", "t42c", "t42d")


@st.composite
def image_chains(draw):
    seq, ref = draw(bases)
    for name in draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=3)):
        seq, ref = _step(name, draw, seq, ref)
    return seq, ref


def _assert_one_form(seq, ref, depth):
    # the verdict first, on cold images, then the form and the public prefix
    report = check_invariance(seq, "first", depth)
    terms = prefix(seq, depth)
    assert terms == ref(depth)
    assert seq._nums(depth).terms()[:depth] == terms
    assert report == _report_from_images(seq, "first", depth, "continued")


@settings(max_examples=300)
@given(image_chains(), depths)
def test_image_chains_carry_one_form_to_the_prefix_and_the_verdict(chain, depth):
    _assert_one_form(*chain, depth)


@pytest.mark.parametrize("op", IMAGE_OPS, ids=lambda f: f().label)
@given(base=bases, depth=depths)
def test_images_under_pd_and_the_basis_matrices_keep_the_form(op, base, depth):
    seq, ref = base
    _assert_one_form(sequences._image(op(), seq), _entry_rows(op(), ref), depth)


def test_sums_and_multiples_over_different_denominators():
    xs, ys, c = [Fraction(1, 2), Fraction(-2, 3), 1], [Fraction(1, 3), 5, Fraction(3, 4)], Fraction(2, 5)
    x, y = Lazy(rows=_listed(xs), label="x"), FinSupp(tuple(ys))
    cases = [
        (seq_add(x, y), lambda d: [a + b for a, b in zip(_listed(xs)(d), _listed(ys)(d))]),
        (seq_scale(c, x), lambda d: [c * a for a in _listed(xs)(d)]),
        (seq_add(t42c(y), seq_scale(c, x)),
         lambda d: [a + c * b for a, b in zip(_halved(_listed(ys))(d), _listed(xs)(d))]),
    ]
    for seq, ref in cases:
        for depth in (1, 3, 7):
            _assert_one_form(seq, ref, depth)


@given(rational_exp_combs, depths)
def test_rational_exp_combs_step_in_integers(x, depth):
    held = x._nums(depth)
    assert all(isinstance(n, int) for n in held.ns) and held.den > 0
    _assert_one_form(x, _by_terms(x), depth)


def test_rational_exp_combs_with_ratio_zero_and_int_or_negative_ratios():
    cases = [ExpComb(((3, 0),)), ExpComb(((Fraction(1, 2), 0), (2, -3))),
             ExpComb(((Fraction(-2, 3), Fraction(-5, 3)), (1, Fraction(8, 3)), (4, 2)))]
    for x in cases:
        for depth in (1, 2, 9, 30):
            _assert_one_form(x, _by_terms(x), depth)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda s: type(s).__name__)
def test_the_families_read_their_caches_once_per_prefix(family):
    for depth in (1, 2, 13, 40):
        assert prefix(family, depth) == [family.term(n) for n in range(depth)]
        _assert_one_form(family, _by_terms(family), depth)


def test_a_form_backed_lazy_gives_the_terms_of_its_prefix_across_cache_growth():
    seq = t42d(t42c(KSeq()))  # lazy images of lazy images, each held as a Nums
    for n in (0, 1, 2, 5, 3, 17, 40, 9):
        fresh = t42d(t42c(KSeq()))
        assert seq.term(n) == fresh.prefix(n + 1)[n] == seq.prefix(n + 1)[n]
    assert seq.prefix(41) == t42d(t42c(KSeq())).prefix(41)


def test_a_lazy_whose_rows_return_a_list_keeps_its_terms():
    listed = Lazy(rows=lambda d: [Fraction(k) if k % 2 else k for k in range(d)], label="listed")
    got = listed.prefix(6)
    assert got == list(range(6)) and [type(t) for t in got] == [int, Fraction] * 3
    assert type(listed.term(3)) is Fraction and type(listed.term(4)) is int
    assert prefix(seq_scale(2, listed), 6) == [2 * k for k in range(6)]
    assert check_invariance(listed, "first", 6) == _report_from_images(listed, "first", 6, "continued")

import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pascalinv import riordan, rowrules, sequences
from pascalinv.eigenstructure import ptdown, qdown, qtdown00, zero_top_pdown
from pascalinv.errors import (
    DivergentSumError,
    InfiniteSumError,
    PoleError,
    UnsupportedSequenceError,
)
from pascalinv.operators import TriOp, lin_comb, make_operator, op_power, pd, ptd
from pascalinv.scalars import QuadExt, binomial
from pascalinv.sequences import (
    TAU1,
    TAU2,
    AltBernoulli,
    Bernoulli,
    ExpComb,
    FinSupp,
    KSeq,
    Lazy,
    Seq,
    _row_sums,
    apply_finite,
    apply_upper,
    bernoulli_number,
    check_invariance,
    difference,
    fibonacci,
    geometric,
    k_number,
    lucas,
    newton_reconstruct,
    prefix,
    seq_add,
    seq_scale,
    shift_down,
    shift_up,
    term,
    unit,
)
from pascalinv.transforms import TRANSFORM_STAGES, build_phi, build_psi, t42c, t42d

small_finsupps = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=1, max_size=10
).map(lambda xs: FinSupp(tuple(xs)))


def fib_ints(n):
    out = [0, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out[:n]


def lucas_ints(n):
    out = [2, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out[:n]


def test_named_terms():
    assert term(Bernoulli(), 12) == Fraction(-691, 2730)
    assert term(Bernoulli(), 1) == Fraction(-1, 2)
    assert term(fibonacci(), 10) == 55
    assert term(KSeq(), 11) == Fraction(41, 1155)
    assert term(AltBernoulli(), 1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        term(fibonacci(), -1)


def test_finsupp_normalisation():
    x = FinSupp((1, 0, 2, 0, 0))
    assert x.terms == (1, 0, 2)
    assert x.support_bound == 3
    assert x.term(1) == 0 and x.term(7) == 0
    assert unit(3).terms == (0, 0, 0, 1)


def test_expcomb_normalisation():
    assert ExpComb(((1, 2), (-1, 2))).pairs == ()
    merged = ExpComb(((1, 2), (2, 2), (1, 3)))
    assert merged.pairs == ((3, 2), (1, 3))
    # 0**0 = 1
    assert geometric(5, 0).term(0) == 5
    assert geometric(5, 0).term(1) == 0


def test_binet_forms_satisfy_recurrence():
    fib, luc = fibonacci(), lucas()
    for seq, ints in ((fib, fib_ints(65)), (luc, lucas_ints(65))):
        values = prefix(seq, 65)
        for n in range(65):
            v = values[n]
            assert isinstance(v, QuadExt) and v.is_rational
            assert v == ints[n]
        for n in range(2, 65):
            assert values[n] == values[n - 1] + values[n - 2]


def test_apply_finite_pd_eigenvectors():
    dep = 16
    assert apply_finite(pd(), lucas(), dep) == prefix(lucas(), dep)
    assert apply_finite(pd(), fibonacci(), dep) == [-t for t in prefix(fibonacci(), dep)]
    halves = geometric(Fraction(1), Fraction(1, 2))
    assert apply_finite(pd(), halves, dep) == prefix(halves, dep)


def test_apply_finite_rejects_unbounded_upper():
    with pytest.raises(InfiniteSumError):
        apply_finite(ptd(), unit(0), 4)


def test_apply_upper_finsupp():
    out = apply_upper(ptd(), unit(7), "classical")
    assert out.terms == tuple(-binomial(7, n) for n in range(8))
    # any unbounded upper operator works on finite support, powers included
    roundtrip = apply_upper(op_power(ptd(), 2), FinSupp((1, -2, 3)))
    assert roundtrip == FinSupp((1, -2, 3))


def test_apply_upper_banded_lookahead():
    j0 = make_operator("J", 0)
    shifted = apply_upper(j0, fibonacci())
    assert prefix(shifted, 6) == prefix(shift_down(fibonacci()), 6)
    fin = apply_upper(j0, FinSupp((5, 7)))
    assert fin == FinSupp((7,))


def test_ptd_closed_rule_matches_partial_sums():
    # independent oracle: 200-term exact partial sums plus a geometric tail bound
    r = Fraction(1, 3)
    out = apply_upper(ptd(), geometric(Fraction(1), r), "classical")
    assert out.pairs == ((Fraction(3, 4), Fraction(-1, 4)),)
    for n in range(9):
        partial = sum(
            binomial(k, n) * (-1) ** k * r**k for k in range(n, n + 200)
        )
        closed = Fraction(3, 4) * Fraction(-1, 4) ** n
        big = n + 200
        growth = Fraction(big + 1, big + 1 - n)
        tail_bound = binomial(big, n) * r**big / (1 - growth * r)
        assert abs(partial - closed) <= tail_bound


def test_ptd_continuation_on_shifted_binet_forms():
    j0f, j0l = shift_down(fibonacci()), shift_down(lucas())
    assert prefix(apply_upper(ptd(), j0f), 24) == prefix(j0f, 24)
    assert prefix(apply_upper(ptd(), j0l), 24) == [-t for t in prefix(j0l, 24)]


def test_summation_error_taxonomy():
    with pytest.raises(DivergentSumError):
        apply_upper(ptd(), shift_down(fibonacci()), "classical")
    with pytest.raises(DivergentSumError):
        apply_upper(ptd(), geometric(1, -1), "classical")
    with pytest.raises(PoleError):
        apply_upper(ptd(), geometric(1, -1), "continued")
    with pytest.raises(UnsupportedSequenceError, match="is unbounded upper"):
        apply_upper(ptd(), Bernoulli())
    with pytest.raises(UnsupportedSequenceError, match="is unbounded upper"):
        apply_upper(ptd(), Lazy(lambda n: n))
    with pytest.raises(ValueError):
        apply_upper(ptd(), unit(1), "nonsense")
    # a general operator has neither band: no finite sum, and no closed rule
    with pytest.raises(InfiniteSumError, match="has no finite summation range"):
        apply_upper(lin_comb(1, make_operator("P"), 1, make_operator("PT")), FinSupp([1]))
    with pytest.raises(UnsupportedSequenceError, match="^no geometric closed rule for P\\^T$"):
        apply_upper(make_operator("PT"), lucas())


def test_jinv_rules():
    jinv2 = make_operator("Jinv", 2)
    out = apply_upper(jinv2, geometric(Fraction(1), Fraction(1, 2)), "classical")
    assert out.pairs == ((Fraction(2, 5), Fraction(1, 2)),)
    with pytest.raises(DivergentSumError):
        apply_upper(jinv2, geometric(1, 3), "classical")
    with pytest.raises(PoleError):
        apply_upper(jinv2, geometric(1, -2), "continued")
    # golden ratios sit inside the radius-2 disc, so classical mode is legal
    out = apply_upper(jinv2, lucas(), "classical")
    assert prefix(out, 8) == prefix(apply_upper(jinv2, lucas(), "continued"), 8)


def test_shift_examples():
    assert prefix(shift_down(fibonacci()), 5) == [1, 1, 2, 3, 5]
    x = geometric(Fraction(2), Fraction(1, 3))
    y = shift_up(shift_down(x))
    assert prefix(y, 6)[1:] == prefix(x, 6)[1:]
    assert y.term(0) == 0 != x.term(0)
    assert shift_down(lucas()).pairs == ((TAU2, TAU2), (TAU1, TAU1))


def test_shift_up_exact_on_balanced_combinations():
    # J(0) applied to the Binet form of F has a geometric-pair preimage
    up = shift_up(shift_down(fibonacci()))
    assert isinstance(up, ExpComb)
    assert up.pairs == fibonacci().pairs
    # unbalanced combinations fall back to an exact oracle
    up2 = shift_up(geometric(1, Fraction(1, 2)))
    assert not isinstance(up2, ExpComb)
    assert prefix(up2, 4) == [0, 1, Fraction(1, 2), Fraction(1, 4)]


def test_difference():
    squares = Lazy(lambda n: n * n, label="squares")
    assert prefix(difference(squares, 2), 6) == [2] * 6
    assert prefix(difference(fibonacci(), 1), 6) == [1, 0, 1, 1, 2, 3]
    assert prefix(difference(squares, 0), 4) == [0, 1, 4, 9]
    with pytest.raises(ValueError):
        difference(squares, -1)
    # structure-preserving rules agree with the generic oracle
    x = ExpComb(((Fraction(3), Fraction(1, 2)), (1, 0)))
    lazy_diff = difference(Lazy(x.term), 1)
    assert prefix(difference(x, 1), 8) == prefix(lazy_diff, 8)
    f = FinSupp((1, 4, 0, 2))
    assert prefix(difference(f, 1), 6) == [3, -4, 2, -2, 0, 0]


_SQRT5 = QuadExt(0, 1, 5)
_LINEAR_MAPS = {
    "scale": lambda s: seq_scale(Fraction(-3, 2), s),
    "scale-sqrt5": lambda s: seq_scale(_SQRT5, s),
    "shift-down": shift_down,
    "shift-up": shift_up,
    "difference": difference,
    "difference-3": lambda s: difference(s, 3),
    "J(2)": lambda s: apply_upper(make_operator("J", 2), s),
    **{stage.name: lambda s, stage=stage: stage.run(s, "continued")  # the four projections
       for stage in (build(1, variant).steps[0] for build in (build_phi, build_psi)
                     for variant in ("plain", "tilde"))},
    "t42c": t42c,
}


@pytest.mark.parametrize("x", [
    FinSupp((Fraction(1, 2), -3, 0, Fraction(5, 3))),
    FinSupp((1, _SQRT5, Fraction(-1, 3), 1 + _SQRT5)),
    FinSupp((_SQRT5,)),
    FinSupp((7,)),
    FinSupp(()),
], ids=["rational", "sqrt5", "one-term-sqrt5", "one-term", "empty"])
@pytest.mark.parametrize("name", list(_LINEAR_MAPS))
def test_finsupp_and_lazy_inputs_share_each_maps_rule(x, name):
    """Each linear map gives a FinSupp and an oracle of its terms the same
    image, read as one prefix or term by term (which grows a lazy image's
    cache a few terms at a time)."""
    image = _LINEAR_MAPS[name]
    want = prefix(image(x), 12)
    assert prefix(image(Lazy(oracle=x.term)), 12) == want
    lazy = image(Lazy(oracle=x.term))
    assert [lazy.term(n) for n in range(12)] == want


def test_difference_commutes_with_shift():
    for seq in (fibonacci(), KSeq(), FinSupp((1, -2, 0, 5))):
        lhs = prefix(difference(shift_down(seq), 1), 10)
        rhs = prefix(shift_down(difference(seq, 1)), 10)
        assert lhs == rhs


def test_newton_reconstruct():
    assert newton_reconstruct(lucas(), 10) == prefix(lucas(), 10)
    assert newton_reconstruct(unit(3), 8) == prefix(unit(3), 8)
    assert newton_reconstruct(Bernoulli(), 8) == prefix(Bernoulli(), 8)
    with pytest.raises(ValueError):
        newton_reconstruct(lucas(), 0)


def _newton_by_definition(seq, depth):
    """sum_k C(n, k) * Δ^k a_0, with the difference heads taken row by row."""
    heads, row = [], prefix(seq, depth)
    while row:
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return [sum(heads[k] * binomial(n, k) for k in range(n + 1)) for n in range(depth)]


@pytest.mark.parametrize(
    "seq",
    [
        FinSupp((3, -1, 4, 1, -5)),
        geometric(2, -3),
        FinSupp((Fraction(2), Fraction(-4), Fraction(7))),
        Bernoulli(),
        geometric(Fraction(1, 2), Fraction(-2, 3)),
        lucas(),
        fibonacci(),
        geometric(QuadExt(1, 1, 5), TAU2),
    ],
    ids=["int", "int geometric", "integer Fraction", "Bernoulli", "Fraction geometric",
         "Lucas", "Fibonacci", "Q(sqrt5) geometric"],
)
def test_newton_reconstruct_matches_the_binomial_sum(seq):
    for depth in (1, 2, 7, 16):
        assert newton_reconstruct(seq, depth) == _newton_by_definition(seq, depth)
        assert newton_reconstruct(seq, depth) == prefix(seq, depth)


def test_check_invariance_verdicts():
    assert check_invariance(lucas(), "first", 64).verdict == "invariant"
    assert check_invariance(AltBernoulli(), "first", 32).verdict == "invariant"
    assert check_invariance(KSeq(), "first", 32).verdict == "inverse-invariant"
    rep = check_invariance(shift_down(fibonacci()), "second", 32, "continued")
    assert rep.verdict == "invariant"
    assert rep.mode == "closed-form"
    rep = check_invariance(unit(0), "second", 16)
    assert rep.verdict == "invariant" and rep.mode == "exact-finite"


def test_check_invariance_classical_mode_label():
    rep = check_invariance(geometric(Fraction(1), Fraction(1, 3)), "second", 8, "classical")
    assert rep.mode == "classical-partial-sum"
    assert rep.verdict == "neither"


def test_check_invariance_neither():
    rep = check_invariance(FinSupp((1, 1)), "first", 8)
    assert rep.verdict == "neither"
    assert rep.first_failure == 1
    with pytest.raises(UnsupportedSequenceError):
        check_invariance(Bernoulli(), "second", 8)
    with pytest.raises(ValueError):
        check_invariance(lucas(), "third", 8)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        check_invariance(lucas(), "first", 0)


@given(small_finsupps)
def test_binomial_inversion_involution(x):
    once = FinSupp(tuple(apply_finite(pd(), x, 32)))
    assert apply_finite(pd(), once, 32) == prefix(x, 32)


@given(small_finsupps)
def test_modified_inversion_involution(x):
    once = apply_upper(ptd(), x)
    assert isinstance(once, FinSupp)
    assert apply_upper(ptd(), once) == x


def test_lazy_oracle_first_kind_check():
    # index-times-term products have no geometric-combination form, but the
    # first-kind check needs only finite row sums over an exact oracle
    fib = fibonacci()
    seq = Lazy(lambda n: n * fib.term(n - 1) if n else 0, label="n*F(n-1)")
    assert check_invariance(seq, "first", 32).verdict == "invariant"
    with pytest.raises(UnsupportedSequenceError):
        check_invariance(seq, "second", 8)


def test_a_seq_subclass_defining_only_term_gets_prefix_and_a_verdict():
    class Halves(Seq):
        def term(self, n):
            return Fraction(1, 2 ** n)

    # sum_k C(n, k) (-1)^k 2^-k = (1 - 1/2)^n: invariant of the first kind
    assert Halves().prefix(4) == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    assert check_invariance(Halves(), "first", 16).verdict == "invariant"


def test_memoisation_is_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(bernoulli_number, [120] * 16))
    assert len(set(results)) == 1
    assert results[0] == bernoulli_number(120)

    shared = Lazy(lambda n: bernoulli_number(n) + n, label="shared")
    with ThreadPoolExecutor(max_workers=8) as pool:
        rows = list(pool.map(lambda _: prefix(shared, 40), range(8)))
    assert all(row == rows[0] for row in rows)


def test_bernoulli_and_k_values():
    assert [bernoulli_number(n) for n in range(7)] == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
        Fraction(-1, 30), Fraction(0), Fraction(1, 42),
    ]
    assert k_number(0) == 0
    assert k_number(4) == Fraction(1, 6)
    assert k_number(12) == Fraction(41, 2310)


@pytest.mark.parametrize("cls", [Bernoulli, AltBernoulli, KSeq])
def test_cached_family_prefixes_read_the_cache_once(cls, monkeypatch):
    """A prefix of the Bernoulli family fills its cache once, with the values
    and types of the term oracle."""
    seq = cls()
    want = [seq.term(n) for n in range(40)]
    calls = Counter()
    for name in ("bernoulli_number", "k_number"):
        fill = getattr(sequences, name)
        monkeypatch.setattr(sequences, name, lambda n, f=fill, k=name: calls.update([k]) or f(n))
    got = seq.prefix(40)
    monkeypatch.undo()
    assert got == want and [type(v) for v in got] == [type(v) for v in want]
    assert sum(calls.values()) == 1
    assert seq.prefix(0) == []


def akiyama_tanigawa(n):
    """B_0..B_n by the Akiyama–Tanigawa algorithm, which takes B_1 = +1/2."""
    row, out = [], []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def test_bernoulli_numbers_match_akiyama_tanigawa():
    want = akiyama_tanigawa(300)
    want[1] = -want[1]
    got = [bernoulli_number(n) for n in range(301)]
    assert got == want
    assert all(type(b) is Fraction for b in got)


def brute_pd_rows(xs):
    return [
        sum(binomial(n, k) * (-1) ** k * xs[k] for k in range(n + 1))
        for n in range(len(xs))
    ]


KERNEL_INPUTS = [
    FinSupp((3, Fraction(-1, 2), 0, 7)),
    ExpComb(((Fraction(2), Fraction(1, 3)), (Fraction(-1, 5), Fraction(-2)), (1, 0))),
    ExpComb(((Fraction(3, 2), TAU1), (QuadExt(1, 2, 5), TAU2), (Fraction(1), Fraction(1, 2)))),
    Lazy(lambda n: Fraction(n * n - 3, n + 1), label="rational oracle"),
]


@pytest.mark.parametrize("seq", KERNEL_INPUTS, ids=["finsupp", "rational", "quadratic", "lazy"])
def test_apply_finite_pd_matches_binomial_row_sums(seq):
    dep = 24
    xs = [seq.term(n) for n in range(dep)]
    assert apply_finite(pd(), seq, dep) == brute_pd_rows(xs)
    assert apply_finite(pd(), seq, 0) == []


def test_apply_finite_banded_lookahead_matches_entries():
    op = make_operator("J", Fraction(-3, 2))
    seq = KERNEL_INPUTS[2]
    want = [Fraction(-3, 2) * seq.term(n) + seq.term(n + 1) for n in range(12)]
    assert apply_finite(op, seq, 12) == want


@pytest.mark.parametrize(
    "seq", KERNEL_INPUTS[1:3] + [lucas(), fibonacci(), geometric(5, 0), ExpComb(())]
)
def test_expcomb_prefix_steps_to_the_same_terms(seq):
    got = seq.prefix(40)
    want = [seq.term(n) for n in range(40)]
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


class CountingLazy(Lazy):
    """Lazy oracle that records how often each index is requested."""

    def __init__(self, oracle):
        super().__init__(oracle)
        object.__setattr__(self, "calls", Counter())

    def term(self, n):
        self.calls[n] += 1
        return super().term(n)


def test_kernels_evaluate_each_index_once():
    seq = CountingLazy(lambda n: Fraction(1, n + 1))
    apply_finite(pd(), seq, 20)
    assert sorted(seq.calls) == list(range(20))
    assert max(seq.calls.values()) == 1

    seq = CountingLazy(lambda n: Fraction(1, n + 1))
    apply_finite(make_operator("J", 2), seq, 20)
    assert sorted(seq.calls) == list(range(21))
    assert max(seq.calls.values()) == 1

    # a depth-0 prefix reads no input term, not even the band's lookahead
    seq = CountingLazy(lambda n: Fraction(1, n + 1))
    assert apply_finite(make_operator("J", 2), seq, 0) == []
    assert not seq.calls

    fib = fibonacci()
    seq = CountingLazy(lambda n: n * fib.term(n - 1) if n else 0)
    assert check_invariance(seq, "first", 32).verdict == "invariant"
    assert sorted(seq.calls) == list(range(32))
    assert max(seq.calls.values()) == 1


def test_k_number_matches_defining_sum():
    for n in range(61):
        want = sum(
            Fraction(1, 2 ** (n - k)) * (-1) ** k * bernoulli_number(k) for k in range(n)
        )
        assert k_number(n) == want
    with pytest.raises(ValueError):
        k_number(-1)


def test_k_number_cache_is_thread_safe():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(k_number, n) for n in range(100, 164, 4) for _ in range(2)]
            values = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert values[0::2] == values[1::2]
    for n in range(1, 161):
        assert k_number(n) == (k_number(n - 1) + (-1) ** (n - 1) * bernoulli_number(n - 1)) / 2


KERNEL_OPS = {
    "P": lambda: make_operator("P"),
    "D": lambda: make_operator("D"),
    "L": lambda: make_operator("L"),
    "Omega": lambda: make_operator("Omega"),
    "PT": lambda: make_operator("PT"),
    "Q": lambda: make_operator("Q"),
    "J(2)": lambda: make_operator("J", 2),
    "Jinv(2)": lambda: make_operator("Jinv", 2),
    "Jinv(√5)": lambda: make_operator("Jinv", QuadExt(0, 1, 5)),
    "Jinv(-3/2)": lambda: make_operator("Jinv", Fraction(-3, 2)),
    "PD": pd,
    "PTD": ptd,
    "ptdown": ptdown,
    "qtdown00": qtdown00,
    "qdown": qdown,
    "zero_top_pdown": zero_top_pdown,
}


def draw_prefix(rng, kind, length):
    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 8))

    def draw():
        if kind == "int":
            return rng.randint(-9, 9)
        if kind == "fraction":
            return rat()
        if kind == "mixed":
            return rng.randint(-9, 9) if rng.random() < 0.5 else rat()
        # quadratic, some of them rational-valued, next to plain rationals
        return rng.choice((QuadExt(rat(), rat(), 5), QuadExt(rat(), 0, 5), rat()))

    return [draw() for _ in range(length)]


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed", "quadratic"])
@pytest.mark.parametrize("name", sorted(KERNEL_OPS))
def test_row_sums_match_brute_force(name, kind):
    """The kernel against whole-row sums that ignore the band, past-end terms zero."""
    op = KERNEL_OPS[name]()
    rng = random.Random(f"{name}:{kind}")
    for _ in range(12):
        xs = draw_prefix(rng, kind, rng.randint(0, 9))
        depth = len(xs) + rng.randint(0, 3)
        want = [
            sum((op.entry(i, k) * xs[k] for k in range(len(xs))), 0)
            for i in range(depth)
        ]
        got = _row_sums(op, xs, depth)
        assert got == want
        assert all(isinstance(v, (int, Fraction, QuadExt)) for v in got), got


# the kernel operators whose tag selects a closed row rule: a rule of its own
# or the generic rule of a Riordan pair
RULE_HEADS = set(rowrules.ROW_RULES) | set(riordan.PAIRS)
RULE_OPS = sorted(name for name, make in KERNEL_OPS.items() if make().tag[0] in RULE_HEADS)


def test_every_row_rule_has_a_kernel_operator():
    assert {KERNEL_OPS[name]().tag[0] for name in RULE_OPS} == RULE_HEADS


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed", "quadratic"])
@pytest.mark.parametrize("name", RULE_OPS)
def test_row_rules_match_the_entry_path(name, kind):
    """A row rule gives each row with the repr, so the value and the type, of the
    band-aware entry sums of the same operator without its tag."""
    op = KERNEL_OPS[name]()
    untagged = TriOp(op.band, op.entry, op.label)
    rng = random.Random(f"rule:{name}:{kind}")
    for length in [0] * 2 + [rng.randint(1, 12) for _ in range(30)]:
        xs = draw_prefix(rng, kind, length)
        want = _row_sums(untagged, xs, length + 3)  # row i does not depend on the depth
        for depth in range(length + 4):
            assert repr(_row_sums(op, xs, depth)) == repr(want[:depth]), (xs, depth)


def quadratic_oracle():
    return Lazy(lambda n: QuadExt(n, 1 - n, 5), label="quadratic oracle")


def row_reference(op, seq):
    """Row n of op times seq, summed from op.entry and seq.term."""
    above = op.band.above
    return lambda n: sum((op.entry(n, k) * seq.term(k) for k in range(n + above + 1)), 0)


def banded_image(op, seq):
    return apply_upper(op, seq), row_reference(op, seq)


def stage_image(pipe, op, seq):
    return pipe.apply(seq), row_reference(op, seq)


def t42c_image(x):
    return t42c(x), lambda n: sum((Fraction(1, 2 ** (n - k)) * x.term(k) for k in range(n)), 0)


LAZY_IMAGES = {
    "banded J(2)": lambda: banded_image(make_operator("J", 2), Bernoulli()),
    "banded PD": lambda: banded_image(pd(), KSeq()),
    "banded Q": lambda: banded_image(make_operator("Q"), quadratic_oracle()),
    "stage Qdown": lambda: stage_image(build_psi(1), qdown(), KSeq()),
    "stage [0;Pdown]": lambda: stage_image(
        build_psi(1, "tilde"), zero_top_pdown(), quadratic_oracle()
    ),
    "stage PTdown": lambda: stage_image(build_phi(1), ptdown(), Bernoulli()),
    "stage QTdown00": lambda: stage_image(build_phi(1, "tilde"), qtdown00(), AltBernoulli()),
    "t42c rational": lambda: t42c_image(Bernoulli()),
    "t42c quadratic": lambda: t42c_image(quadratic_oracle()),
    "t42c ratio 1/2": lambda: t42c_image(geometric(3, Fraction(1, 2))),
    "t42d": lambda: (t42d(KSeq()), lambda n: -k_number(n) + 2 * k_number(n + 1)),
    "shift_up lucas": lambda: (shift_up(lucas()), lambda n: lucas().term(n - 1) if n else 0),
    "shift_up": lambda: (shift_up(KSeq()), lambda n: k_number(n - 1) if n else 0),
    "shift_down": lambda: (shift_down(Bernoulli()), lambda n: bernoulli_number(n + 1)),
    "difference": lambda: (
        difference(KSeq(), 2),
        lambda n: k_number(n + 2) - 2 * k_number(n + 1) + k_number(n),
    ),
    "sum": lambda: (
        seq_add(Bernoulli(), quadratic_oracle()),
        lambda n: bernoulli_number(n) + QuadExt(n, 1 - n, 5),
    ),
    "scaled": lambda: (
        seq_scale(Fraction(-3, 2), quadratic_oracle()),
        lambda n: Fraction(-3, 2) * QuadExt(n, 1 - n, 5),
    ),
}


@pytest.mark.parametrize("name", sorted(LAZY_IMAGES))
def test_lazy_images_match_their_defining_sums(name):
    out, ref = LAZY_IMAGES[name]()
    assert isinstance(out, Lazy) and out.rows is not None
    want = [ref(n) for n in range(30)]
    assert out.term(9) == want[9]  # a term before any prefix
    assert out.prefix(14) == want[:14]
    assert out.prefix(5) == want[:5]
    assert [out.term(n) for n in range(14)] == want[:14]
    assert out.term(29) == want[29]
    assert out.prefix(30) == want
    assert all(isinstance(v, (int, Fraction, QuadExt)) for v in want + out.prefix(30))
    assert out.prefix(0) == []
    with pytest.raises(ValueError):
        out.term(-1)


def test_lazy_needs_exactly_one_rule():
    with pytest.raises(ValueError, match="exactly one"):
        Lazy()
    with pytest.raises(ValueError, match="exactly one"):
        Lazy(lambda n: n, rows=lambda d: list(range(d)))


@pytest.mark.parametrize(
    "build, variant", [(build_phi, "plain"), (build_psi, "plain"), (build_psi, "tilde")]
)
def test_pipelines_read_each_index_once(build, variant, monkeypatch):
    """Each input index is read once and each matrix stage runs its kernel once,
    also where a stage reads its input at two depths (t42a, t42d)."""
    row_sums = _row_sums
    kernel_calls = []

    def counting_row_sums(op, xs, depth):
        kernel_calls.append(op.label)
        return row_sums(op, xs, depth)

    monkeypatch.setattr(sequences, "_row_sums", counting_row_sums)
    for length in (3, 4, 12):
        pipe = build(length, variant)
        kernel_calls.clear()
        seq = CountingLazy(lambda n: Fraction(1, n + 1))
        got = pipe.apply(seq).prefix(10)
        assert max(seq.calls.values()) == 1
        assert len(kernel_calls) == sum(s not in TRANSFORM_STAGES.values() for s in pipe.steps)
        fresh = pipe.apply(Lazy(lambda n: Fraction(1, n + 1)))
        assert got == [fresh.term(i) for i in range(10)]


def test_negative_depth_is_an_error():
    calls = [
        lambda: apply_finite(pd(), lucas(), -2),
        lambda: prefix(lucas(), -1),
        lambda: Lazy(lambda n: n).prefix(-1),
        lambda: shift_up(KSeq()).prefix(-1),
        lambda: FinSupp((1, 2)).prefix(-1),
        lambda: Bernoulli().prefix(-3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="depth must be >= 0"):
            call()
    assert apply_finite(pd(), lucas(), 0) == []
    assert prefix(lucas(), 0) == []
    assert Lazy(lambda n: n).prefix(0) == []


@pytest.mark.parametrize(
    "seq",
    [
        Lazy(lambda n: n), Lazy(rows=lambda d: list(range(d))), lucas(),
        FinSupp([1, 2]), Bernoulli(), AltBernoulli(), KSeq(),
    ],
    ids=["oracle", "rows", "expcomb", "finsupp", "bernoulli", "altbernoulli", "kseq"],
)
def test_negative_index_is_an_error(seq):
    with pytest.raises(ValueError, match="n must be >= 0"):
        seq.term(-1)


def test_oracle_lazy_caches_only_its_prefix():
    calls = Counter()

    def oracle(n):
        calls[n] += 1
        return Fraction(1, n + 1)

    seq = Lazy(oracle)
    assert prefix(seq, 6) == [Fraction(1, n + 1) for n in range(6)]
    assert [seq.term(n) for n in range(6)] == prefix(seq, 6)
    assert max(calls.values()) == 1  # inside the prefix, term reads the cache
    assert seq.term(9) == seq.term(9) == Fraction(1, 10)
    assert calls[9] == 2  # past it, each read asks the oracle
    assert not any(hasattr(v, "cache_info") for v in vars(seq).values())


def test_finsupp_strips_a_long_zero_tail_in_linear_time():
    start = time.perf_counter()
    x = FinSupp([1] + [0] * 200_000)
    assert time.perf_counter() - start < 2
    assert x == FinSupp([1])


@pytest.mark.parametrize("terms", [(), (3,), (0, Fraction(-1, 2), QuadExt(1, 1, 5), 0, 7)])
def test_finsupp_prefix_matches_its_terms(terms):
    x = FinSupp(terms)
    for depth in range(len(terms) + 4):
        got = x.prefix(depth)
        want = [x.term(n) for n in range(depth)]
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]


FINITE_OPS = {
    "P": lambda: make_operator("P"),
    "PD": pd,
    "D": lambda: make_operator("D"),
    "J(2)": lambda: make_operator("J", 2),
    "qdown": qdown,
    "zero_top_pdown": zero_top_pdown,
    "banded lin_comb": lambda: lin_comb(
        Fraction(1, 2), make_operator("J", -3), 2, make_operator("D")
    ),
}


@pytest.mark.parametrize("kind", ["int", "fraction", "quadratic"])
@pytest.mark.parametrize("name", sorted(FINITE_OPS))
def test_apply_finite_reads_finsupp_terms_like_a_padded_prefix(name, kind):
    """A FinSupp's stored terms give the image of the same terms padded with zeros."""
    op = FINITE_OPS[name]()
    rng = random.Random(f"{name}:{kind}")
    for _ in range(6):
        x = FinSupp(draw_prefix(rng, kind, rng.randint(0, 7)))
        t = x.terms
        padded = Lazy(rows=lambda d, t=t: list(t[:d]) + [0] * (d - len(t)))
        for depth in range(len(t) + 4):
            assert apply_finite(op, x, depth) == apply_finite(op, padded, depth)


# QuadExt(2, 0, 5) equals the ratio 2, so the two merge
RATIOS = [0, 1, -1, Fraction(1, 2), 2, QuadExt(2, 0, 5), TAU1, TAU2, QuadExt(0, 1, 5)]


scalars_q5 = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.builds(
        lambda a, b: QuadExt(a, b, 5),
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
    ),
)
pair_lists = st.lists(st.tuples(scalars_q5, st.sampled_from(RATIOS)), max_size=5)


@st.composite
def expcomb_pairs(draw):
    """Two ExpCombs; the second often rearranges the first's pairs, splits a
    coefficient in two or adds pairs that cancel, so both outcomes occur."""
    xs = draw(pair_lists)
    ys = list(draw(st.permutations(xs)))
    if ys and draw(st.booleans()):
        c, r = ys.pop()
        part = draw(scalars_q5)
        ys += [(part, r), (c - part, r)]
    if draw(st.booleans()):
        c, r = draw(scalars_q5), draw(st.sampled_from(RATIOS))
        ys += [(c, r), (-c, r)]
    if draw(st.booleans()):
        ys += draw(pair_lists)
    return ExpComb(xs), ExpComb(ys)


@given(expcomb_pairs())
def test_expcomb_equality_decides_every_index(xy):
    """Geometric sequences with distinct ratios are independent, so equal
    canonical pairs are exactly equal 2k-prefixes, k the distinct ratios."""
    x, y = xy
    k = len({r for _, r in x.pairs + y.pairs})
    assert (x == y) == (prefix(x, 2 * k) == prefix(y, 2 * k))


FIELD_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def field_scalars(d):
    """Scalars of one field Q(√d): rationals, Q(√d) values (rational-valued ones
    among them) and rational-valued QuadExts that carry another field's label."""
    return st.one_of(
        FIELD_RATIONALS,
        st.integers(-3, 3),
        st.builds(lambda a, b: QuadExt(a, b, d), FIELD_RATIONALS, FIELD_RATIONALS),
        st.builds(lambda a, e: QuadExt(a, 0, e), FIELD_RATIONALS, st.sampled_from([2, 3, 5])),
    )


@st.composite
def field_combinations(draw):
    """Pairs over Q(√5) or Q(√2), with zero ratios (0**0 = 1) and ratios b√d,
    whose even powers are rational, and a depth of 0..60."""
    d = draw(st.sampled_from([5, 2]))
    scalars = field_scalars(d)
    ratios = st.one_of(scalars, st.just(0), st.builds(lambda b: QuadExt(0, b, d), FIELD_RATIONALS))
    pairs = draw(st.lists(st.tuples(scalars, ratios), min_size=1, max_size=4))
    return pairs, draw(st.integers(0, 60))


@given(field_combinations())
def test_field_prefix_keeps_the_terms_reprs(drawn):
    """A prefix over Q(√d) has the value, type and repr, field label included,
    of each ExpComb.term, whether read as terms or as the Nums of a verdict;
    every step of the integer halves is reduced."""
    pairs, depth = drawn
    x = ExpComb(pairs)
    want = repr([x.term(n) for n in range(depth)])
    assert repr(x.prefix(depth)) == want
    quads = [v for pair in x.pairs for v in pair if isinstance(v, QuadExt)]
    if quads:
        # a rational combination's Nums lies over one denominator (an integral
        # Fraction term reads back as an int); a Q(√d) one holds the terms
        assert repr(x._nums(depth).terms()[:depth]) == want
        d = next((v.d for v in quads if v.b), quads[0].d)
        for c, r in x.pairs:
            for n, (a, b, den) in enumerate(rowrules._field_steps(c, r, d, depth)):
                assert QuadExt(Fraction(a, den), Fraction(b, den), d) == c * r**n
                assert gcd(a, b, den) == 1


def test_field_prefix_makes_no_quadext_arithmetic(monkeypatch):
    """A Q(√5) prefix steps integers: no QuadExt product or sum is taken."""
    calls = Counter()
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        method = getattr(QuadExt, name)
        monkeypatch.setattr(QuadExt, name,
                            lambda self, other, m=method, k=name: calls.update([k]) or m(self, other))
    x = seq_add(seq_scale(2, lucas()), seq_scale(-3, fibonacci()))
    want = [x.term(n) for n in range(44)]
    assert calls  # the spy sees the term oracle's arithmetic
    calls.clear()
    assert x.prefix(44) == want
    assert x._nums(44).terms() == want
    assert check_invariance(x, "first", 44).verdict == "neither"
    assert not calls


def test_field_steps_of_the_golden_ratio_are_lucas_and_fibonacci_halves():
    # τ1**n = (L_n + F_n √5) / 2, over 1 when L_n and F_n are both even (3 | n)
    fib = fib_ints(41)
    luc = [2, 1]
    while len(luc) < 40:
        luc.append(luc[-1] + luc[-2])
    steps = rowrules._field_steps(1, TAU1, 5, 40)
    assert steps == [(luc[n] // 2, fib[n] // 2, 1) if n % 3 == 0 else (luc[n], fib[n], 2)
                     for n in range(40)]
    assert rowrules._field_steps(1, TAU1, 5, 0) == []


@pytest.mark.parametrize("name", [
    name for name in RULE_OPS if KERNEL_OPS[name]().tag[0] not in rowrules.ROW_RULES])
def test_riordan_rules_over_a_field_keep_the_entry_types(name):
    """Over Q(√5) a Riordan rule runs on the integer halves, and each row keeps
    the type the entry sums give it from the terms in its span (int rows where
    only ints lie); a prefix whose QuadExts carry two labels takes the entry
    sums, with their labels."""
    op = KERNEL_OPS[name]()
    untagged = TriOp(op.band, op.entry, op.label)
    rng = random.Random(f"field rows:{name}")

    def draw(labels):
        k = rng.random()
        if k < 0.4:
            return rng.randint(-9, 9)
        if k < 0.6:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 8))
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return QuadExt(a, rng.randint(-3, 3), 5) if k < 0.9 else QuadExt(a, 0, rng.choice(labels))

    for labels in ([5], [5, 2]):
        for length in [rng.randint(1, 12) for _ in range(30)]:
            xs = [draw(labels) for _ in range(length)]
            if not any(isinstance(x, QuadExt) for x in xs):
                continue
            want = _row_sums(untagged, xs, length + 3)
            assert repr(_row_sums(op, xs, length + 3)) == repr(want), xs


@pytest.mark.parametrize("name", [
    name for name in RULE_OPS if KERNEL_OPS[name]().tag[0] not in rowrules.ROW_RULES])
def test_riordan_rules_on_a_quadext_free_field_prefix(name):
    """A prefix held as terms (den None) with no QuadExt left, such as the
    shift of [√5, 1], takes the Riordan rows as the untagged operator does."""
    op = KERNEL_OPS[name]()
    untagged = TriOp(op.band, op.entry, op.label)
    x = shift_down(FinSupp([QuadExt(0, 1, 5), 1]))
    assert repr(apply_finite(op, x, 3)) == repr(apply_finite(untagged, x, 3))

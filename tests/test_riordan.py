"""Riordan pairs of the Pascal-type operators: each pair against its entry
oracle, closed products against the block product of entry oracles, the
truncation of such products and the row sums of the kernel on them without
entry calls, and PD's own row rule against its pair."""
import random
from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb

import pytest

from pascalinv import riordan
from pascalinv.eigenstructure import make_M, make_N, ptdown, qdown, qtdown00, zero_top_pdown
from pascalinv.operators import (
    DenseMat, TriOp, compose, make_operator, op_power, pd, transpose, truncate,
)
from pascalinv.rowrules import ROW_RULES, _packed_pd_rows, _pd_rows
from pascalinv.scalars import QuadExt, binomial
from pascalinv.sequences import FinSupp, _row_sums, apply_finite, lucas

TABLE_OPS = {
    "P": lambda: make_operator("P"),
    "D": lambda: make_operator("D"),
    "PD": pd,
    "L": lambda: make_operator("L"),
    "Omega": lambda: make_operator("Omega"),
    "Q": lambda: make_operator("Q"),
    "ptdown": ptdown,
    "qtdown00": qtdown00,
    "qdown": qdown,
    "zero_top_pdown": zero_top_pdown,
}


def entrywise(op, m, n):
    return [[op.entry(i, j) for j in range(n)] for i in range(m)]


def oracle_block(op, m, n):
    """The m x n block from entry oracles alone: a composition is the naive
    product of its factors' blocks (every factor is lower triangular, so an
    inner size of m suffices)."""
    if op.tag and op.tag[0] == "compose":
        _, left, right = op.tag
        a, b = oracle_block(left, m, m), oracle_block(right, m, n)
        return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    return entrywise(op, m, n)


def test_table_covers_exactly_the_table_operators():
    assert set(riordan.PAIRS) == set(TABLE_OPS)
    for name, factory in TABLE_OPS.items():
        assert factory().tag == (name,)


@pytest.mark.parametrize("name", sorted(TABLE_OPS))
def test_pair_reproduces_the_entry_oracle(name):
    op = TABLE_OPS[name]()
    (dn, dd), (hn, hd) = riordan.PAIRS[name]
    assert hn[0] == 0 and dd[0] in (1, -1) and hd[0] in (1, -1)
    assert riordan.block(riordan.PAIRS[name], 24, 24) == entrywise(op, 24, 24)


SHAPES = [(1, 1), (1, 12), (12, 1), (5, 9), (9, 5), (12, 12)]


@pytest.mark.parametrize("left, right", list(product(sorted(TABLE_OPS), repeat=2)))
def test_products_of_two_match_the_block_product_of_entry_oracles(left, right):
    op = compose(TABLE_OPS[left](), TABLE_OPS[right]())
    assert riordan.pair(op) is not None
    # the product keeps its reduced pair
    assert op.tag == ("riordan", riordan._product(riordan.PAIRS[left], riordan.PAIRS[right]))
    for m, n in SHAPES:
        assert truncate(op, m, n) == DenseMat.from_rows(oracle_block(op, m, n)), (m, n)


def test_products_of_three_and_powers_match_the_block_product_of_entry_oracles():
    p, d = make_operator("P"), make_operator("D")
    dpd = compose(d, compose(p, d))
    cases = [dpd, compose(dpd, p), compose(p, dpd), op_power(pd(), 2), op_power(pd(), 3),
             op_power(make_operator("Q"), 3), op_power(qdown(), 2)]
    rng = random.Random(16)
    names = sorted(TABLE_OPS)
    for _ in range(20):
        a, b, c = (TABLE_OPS[rng.choice(names)]() for _ in range(3))
        cases.append(compose(a, compose(b, c)) if rng.random() < 0.5 else compose(compose(a, b), c))
    for op in cases:
        for m, n in SHAPES:
            assert truncate(op, m, n) == DenseMat.from_rows(oracle_block(op, m, n)), (op.label, m, n)


def test_inversion_identities_are_closed_products():
    p, d = make_operator("P"), make_operator("D")
    dpd = compose(d, compose(p, d))
    identity = ((1,), (1,)), ((0, 1), (1,))
    assert riordan.pair(op_power(pd(), 2)) == identity
    assert riordan.pair(compose(dpd, p)) == identity
    assert riordan.pair(compose(p, dpd)) == identity


@pytest.mark.parametrize("n", range(1, 9))
def test_powers_of_p_reduce_to_lowest_terms(n):
    # P**n = (1/(1 - nz), z/(1 - nz)): the common factors of the products cancel
    assert riordan.pair(op_power(make_operator("P"), n)) == (((1,), (1, -n)), ((0, 1), (1, -n)))


def _poly_mul(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return tuple(out)


def test_reduce_cancels_a_common_factor_exactly():
    # a / b in lowest terms, both times a common g with g[0] = ±1
    rng = random.Random("reduce")
    for _ in range(200):
        r, s = rng.sample(range(-6, 7), 2)
        c = rng.choice((1, -1))
        a, b = (c, -c * r), (1, -s)  # c (1 - rz) and 1 - sz: roots 1/r and 1/s differ
        g = (rng.choice((1, -1)), *[rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        num, den = _poly_mul(a, g), _poly_mul(b, g)
        want = tuple(p if p[-1] else p[:1] for p in (a, b))
        assert riordan._reduce(num, den) == want, (a, b, g)
        assert riordan._reduce(tuple(-c for c in num), tuple(-c for c in den)) == want


def test_division_by_a_degree_one_denominator_is_the_series_quotient():
    # 1 - z takes its plain prefix sum; every other (±1, c) the general recurrence
    rng = random.Random("over")
    dens = [(1, -1), (1, 1), (-1, 1), (-1, -1), (1, -32), (-1, 5), (1, 0)]
    for den in dens:
        for length in (0, 1, 2, 7, 20):
            xs = [rng.randint(-9, 9) for _ in range(length)]
            out = riordan._over(list(xs), den)
            assert len(out) == length and all(isinstance(v, int) for v in out)
            if length:
                assert list(_poly_mul(out, den)[:length]) == xs, (den, xs)


def test_a_factor_outside_the_table_has_no_pair():
    p = make_operator("P")
    assert riordan.pair(make_operator("PT")) is None
    assert riordan.pair(compose(p, make_operator("J", 2))) is None
    assert riordan.pair(compose(TriOp(p.band, p.entry, "P*"), p)) is None


def _guarded(op, seen=None):
    """op with its entry made to raise, and so every operator its tag holds
    (factors, an inner operator); an operator held twice is guarded once,
    so a square stays a square."""
    seen = {} if seen is None else seen
    if id(op) not in seen:
        def entry(i, j):
            raise AssertionError(f"entry({i}, {j}) of {op.label} was called")

        tag = op.tag and tuple(_guarded(x, seen) if isinstance(x, TriOp) else x for x in op.tag)
        seen[id(op)] = TriOp(op.band, entry, op.label, tag)
    return seen[id(op)]


def test_truncating_the_inversion_products_calls_no_entry():
    p, d, pd_op = (_guarded(op) for op in (make_operator("P"), make_operator("D"), pd()))
    dpd = compose(d, compose(p, d))
    ident = DenseMat.identity(128)
    assert truncate(op_power(pd_op, 2), 128, 128) == ident
    assert truncate(compose(dpd, p), 128, 128) == ident


P, D = make_operator("P"), make_operator("D")

# products of table operators, each factor passed through f
PRODUCTS = {
    "PD^2": lambda f: op_power(f(pd()), 2),
    "D·P·D": lambda f: compose(f(D), compose(f(P), f(D))),
    "P^3": lambda f: op_power(f(P), 3),
    "Qdown·P": lambda f: compose(f(qdown()), f(P)),
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_the_kernel_reads_a_product_from_its_pair(name):
    """_row_sums and apply_finite on a product of table operators take the rows
    of its pair, with no entry call, and give the values and types of the
    untagged product's entry sums on int, Fraction and one-field Q(√5) terms."""
    op = PRODUCTS[name](_guarded)
    real = PRODUCTS[name](lambda f: f)
    untagged = TriOp(real.band, real.entry, real.label)
    rng = random.Random(name)
    for xs in (
        [rng.randint(-9, 9) for _ in range(12)],
        [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(12)],
        [QuadExt(Fraction(rng.randint(-9, 9), 2), rng.randint(1, 3), 5) for _ in range(12)],
    ):
        for depth in (0, 5, 12, 15):
            assert repr(_row_sums(op, xs, depth)) == repr(_row_sums(untagged, xs, depth))
        assert repr(apply_finite(op, FinSupp(xs), 15)) == repr(apply_finite(untagged, FinSupp(xs), 15))
    assert repr(apply_finite(op, lucas(), 24)) == repr(apply_finite(untagged, lucas(), 24))


def test_a_long_chain_is_read_from_its_pair_without_recursing():
    chain = reduce(compose, [make_operator("P")] * 1200)
    assert truncate(chain, 3, 3).data == ((1, 0, 0), (1200, 1, 0), (1440000, 2400, 1))


def test_a_right_nested_chain_is_read_from_its_pair_without_recursing():
    chain = reduce(lambda right, left: compose(left, right), [make_operator("P")] * 1200)
    assert truncate(chain, 3, 3).data == ((1, 0, 0), (1200, 1, 0), (1440000, 2400, 1))


def test_a_long_chain_hashes_and_compares_without_recursing():
    chain = reduce(compose, [make_operator("P")] * 1200)
    assert isinstance(hash(chain), int)
    assert chain == reduce(compose, [make_operator("P")] * 1200)


IDENTITY = ((1,), (1,)), ((0, 1), (1,))


@pytest.mark.parametrize("op, want", [
    (compose(pd(), P), riordan.PAIRS["D"]),
    (compose(P, compose(D, P)), riordan.PAIRS["D"]),
    (op_power(compose(D, P), 2), IDENTITY),
    (op_power(pd(), 2), IDENTITY),
    (compose(pd(), qdown()), riordan.PAIRS["qdown"]),
    # zero_top_pdown with its d negated
    (compose(pd(), zero_top_pdown()), (((0, -1), (1, -1)), ((0, 0, 1), (1, -1)))),
], ids=lambda v: getattr(v, "label", ""))
def test_the_identities_are_exact_pair_equalities(op, want):
    assert op.tag == ("riordan", want)
    assert riordan.pair(op) == want


def test_a_product_is_one_array_whatever_its_grouping():
    left, right = compose(P, compose(D, P)), compose(compose(P, D), P)
    assert left == right and hash(left) == hash(right)
    assert left.tag == ("riordan", riordan.PAIRS["D"])


def test_reading_a_product_computes_no_pair(monkeypatch):
    products = [build(lambda f: f) for build in PRODUCTS.values()]
    products += [reduce(compose, [P] * 40), op_power(P, 1200)]

    def read_all():
        return [(riordan.pair(op), truncate(op, 9, 9), _row_sums(op, [1, 2, 3], 9)) for op in products]

    def banned(left, right):
        raise AssertionError("a product's pair was computed when it was read")

    want = read_all()
    monkeypatch.setattr(riordan, "_product", banned)
    assert read_all() == want


@pytest.mark.parametrize("left, right", [
    (P, make_operator("J", 2)), (make_operator("PT"), D),
], ids=["P·J(2)", "P^T·D"])
def test_a_product_with_a_factor_outside_the_table_keeps_its_factors(left, right):
    op = compose(left, right)
    assert op.tag == ("compose", left, right)
    for m, n in SHAPES:
        assert truncate(op, m, n).data == tuple(map(tuple, entrywise(op, m, n))), (m, n)


def test_a_square_reads_its_factor_once(monkeypatch):
    calls = []
    product = riordan._product
    monkeypatch.setattr(riordan, "_product", lambda a, b: calls.append(1) or product(a, b))
    assert truncate(op_power(make_operator("P"), 1200), 3, 3)[2, 0] == 1200**2
    # compose takes each product's pair as op_power builds it, and a square
    # once; 1200 = 0b10010110000: ten squarings and three odd steps
    assert len(calls) == 13


def test_deep_powers_nest_by_squaring():
    p = make_operator("P")
    assert riordan.pair(op_power(p, 1200)) == (((1,), (1, -1200)), ((0, 1), (1, -1200)))
    assert truncate(op_power(p, 5000), 4, 4)[3, 0] == 5000**3
    # powers up to 3 keep the left-nested chain
    x = make_operator("J", 2)
    assert op_power(x, 2).tag == ("compose", x, x)
    assert op_power(x, 3).tag == ("compose", compose(x, x), x)
    assert op_power(x, 3).label == "(J(2))^3"


@pytest.mark.parametrize("name", sorted(TABLE_OPS))
def test_truncating_a_table_operator_reads_its_pair_and_no_entry(name):
    op = TABLE_OPS[name]()
    oracle = TriOp(op.band, op.entry, op.label)  # no tag: the entry path
    for m, n in ((1, 1), (3, 9), (9, 3), (64, 64)):
        assert truncate(_guarded(op), m, n) == truncate(oracle, m, n), (name, m, n)
        assert truncate(oracle, m, n).data == tuple(map(tuple, entrywise(op, m, n)))


# every table operator (the four eigenbasis matrices among them) and three products
TRANSPOSED = {**TABLE_OPS, "PD·PD": lambda: compose(pd(), pd()),
              "(D·P·D)·P": lambda: compose(compose(D, compose(P, D)), P),
              "P^3": lambda: op_power(P, 3)}


@pytest.mark.parametrize("name", sorted(TRANSPOSED))
def test_a_transpose_is_read_through_its_inner_block(name):
    op = _guarded(TRANSPOSED[name]())
    for m, n in ((1, 1), (3, 9), (9, 3), (64, 64)):
        want = [list(col) for col in zip(*truncate(op, n, m).data)]
        got = truncate(transpose(op), m, n)
        assert got == DenseMat.from_rows(want), (name, m, n)
        assert {type(x) for row in got.data for x in row} == {int}


def _q(i, j):
    # Q = P + (1 (+) P), entry by entry
    return binomial(i, j) + (1 if i == j == 0 else binomial(i - 1, j - 1))


# the entry closures the upper operators had before they were built as transposes
UPPER_CLOSURES = {
    "PT": lambda i, j: binomial(j, i),
    "A": lambda i, j: (-1) ** (j - i) if i <= j else 0,
    "QT": lambda i, j: _q(j, i),
}


@pytest.mark.parametrize("name", sorted(UPPER_CLOSURES))
def test_the_upper_operators_keep_their_entries_and_read_no_entry(name):
    closure, op = UPPER_CLOSURES[name], make_operator(name)
    for m, n in ((1, 1), (3, 9), (9, 3), (64, 64)):
        want = [[closure(i, j) for j in range(n)] for i in range(m)]
        got = truncate(_guarded(op), m, n)
        assert repr(got.data) == repr(tuple(map(tuple, want))), (name, m, n)
        assert repr(entrywise(op, m, n)) == repr(want)


@pytest.mark.parametrize("op", [
    make_operator("PT"), make_operator("QT"), make_operator("A"), make_operator("J", 2),
    make_operator("Jinv", 3), make_N(), make_M(),
], ids=lambda op: op.label)
def test_an_operator_outside_the_table_still_truncates_from_its_entries(op):
    assert riordan.pair(op) is None
    for m, n in ((1, 1), (3, 9), (9, 3), (24, 24)):
        assert truncate(op, m, n).data == tuple(map(tuple, entrywise(op, m, n)))


def _horner(name, xs, depth):
    """d·X(h) mod z**depth from the table: the rows of the pair's block times xs."""
    rows = riordan.block(riordan.PAIRS[name], depth, max(len(xs), 1))
    return [sum(a * x for a, x in zip(row, xs)) for row in rows]


@pytest.mark.parametrize("name", ["PD"])
def test_row_rules_equal_the_table_pair(name):
    # PD has a rule of its own, the difference table, beside its pair
    rule = ROW_RULES[name]
    rng = random.Random(name)
    for _ in range(40):
        depth = rng.randint(1, 24)
        xs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 30))]
        assert rule(xs, depth) == _horner(name, xs, depth), (xs, depth)


def _random_scalar(rng):
    roll = rng.random()
    if roll < 0.3:
        return rng.randint(-3, 3)
    if roll < 0.5:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return QuadExt(Fraction(rng.randint(-3, 3), 2), rng.choice((0, 1, Fraction(-1, 2))), 5)


@pytest.mark.parametrize("field", ["int", "mixed"])
def test_pd_rows_agree_on_short_and_full_prefixes(field):
    # a short prefix and the same prefix padded with zeros to the depth must
    # both give the entry sums' values and types
    rng = random.Random(field)
    for _ in range(300):
        depth = rng.randint(1, 24)
        b = rng.randint(0, depth // 2)
        if field == "int":
            xs = [rng.randint(-9, 9) for _ in range(b)]
        else:
            xs = [_random_scalar(rng) for _ in range(b)]
        short = _pd_rows(xs, depth)
        full = _pd_rows(xs + [0] * (depth - b), depth)
        assert short == full, (xs, depth)
        assert [type(t) for t in short] == [type(t) for t in full], (xs, depth)
        entry = pd().entry
        assert short == [sum(entry(i, k) * x for k, x in enumerate(xs)) for i in range(depth)]


def test_packed_pd_rows_hold_the_largest_table_entries():
    # int rows of 16 rows or more and slots up to 40 bytes (m = 320 passes
    # them) take the packed table, sized for |Δ^n x_k| < 2**(m+n); an
    # alternating row of the largest entries reaches ±2**n max|x| at its head,
    # and the slots are cut every 8 rows.  The packed table is also run alone,
    # at the narrowest slots its bound allows.
    rng = random.Random("packed")
    rows = [[sign * (-1) ** k * (2**m - 1) for k in range(d)]
            for m in (1, 7, 8, 64, 200) for d in (1, 7, 8, 9, 17, 56) for sign in (1, -1)]
    rows += [[rng.choice((-(2**m), 2**m - 1, 0, rng.randint(-(2**m), 2**m)))
              for _ in range(rng.randint(0, 70))] for m in (1, 8, 30, 64, 207, 320) for _ in range(8)]
    for xs in rows:
        for depth in {0, len(xs), len(xs) + 3, max(len(xs) - 5, 0)}:
            want = [sum(comb(n, k) * (-1) ** k * x for k, x in enumerate(xs[: n + 1]))
                    for n in range(depth)]
            got = _pd_rows(xs, depth)
            assert got == want, (xs, depth)
            assert all(type(t) is int for t in got)
            row = (xs + [0] * depth)[:depth]
            m = max(map(abs, row), default=0).bit_length()
            assert _packed_pd_rows(row, -(-(m + depth) // 8) or 1) == want, (xs, depth)

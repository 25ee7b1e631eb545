"""Block truncation against the entry oracles, band truthfulness, the shared
product kernel and the absence of unbounded caches."""
import gc
import importlib
import pkgutil
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import pascalinv
from pascalinv import eigenstructure, operators
from pascalinv.eigenstructure import (
    factor_chain,
    make_factor,
    make_M,
    make_N,
    ptdown,
    qdown,
    qtdown00,
    verify_block_diag,
    zero_top_pdown,
)
from pascalinv.errors import InfiniteSumError
from pascalinv.operators import (
    DenseMat,
    TriOp,
    compose,
    delete_leading,
    downshift,
    lin_comb,
    make_operator,
    op_power,
    pd,
    ptd,
    transpose,
    truncate,
)
from pascalinv.scalars import QuadExt, binomial

SQRT5_PARAM = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)

NAMED = {
    "P": lambda: make_operator("P"),
    "PT": lambda: make_operator("PT"),
    "D": lambda: make_operator("D"),
    "A": lambda: make_operator("A"),
    "L": lambda: make_operator("L"),
    "Omega": lambda: make_operator("Omega"),
    "Q": lambda: make_operator("Q"),
    "QT": lambda: make_operator("QT"),
    "J(2/3)": lambda: make_operator("J", Fraction(2, 3)),
    "Jinv(-3/2)": lambda: make_operator("Jinv", Fraction(-3, 2)),
    "J(tau)": lambda: make_operator("J", SQRT5_PARAM),
    "Jinv(tau)": lambda: make_operator("Jinv", SQRT5_PARAM),
    "N": make_N,
    "M": make_M,
    "PD": pd,
    "PTD": ptd,
    "PTdown": ptdown,
    "QTdown00": qtdown00,
    "Qdown": qdown,
    "ZeroTopPdown": zero_top_pdown,
    "H(2)": lambda: make_factor("H", 2),
    "U(1)": lambda: make_factor("U", 1),
}


def entrywise(op, m, n):
    return DenseMat.from_rows([[op.entry(i, j) for j in range(n)] for i in range(m)])


def random_composition(rng, depth):
    """A legal nested composition of named operators with up to ``depth`` factors."""
    while True:
        op = NAMED[rng.choice(sorted(NAMED))]()
        for _ in range(rng.randint(1, depth - 1)):
            other = NAMED[rng.choice(sorted(NAMED))]()
            pair = (op, other) if rng.random() < 0.5 else (other, op)
            try:
                op = compose(*pair)
            except InfiniteSumError:
                continue
        if op.tag and op.tag[0] == "compose":
            return op


SHAPES = [(1, 1), (1, 6), (6, 1), (5, 7), (7, 5), (8, 8)]


@pytest.mark.parametrize("seed", range(12))
def test_block_truncation_matches_entry_oracle(seed):
    rng = random.Random(seed)
    op = random_composition(rng, 4)
    for m, n in SHAPES:
        assert truncate(op, m, n) == entrywise(op, m, n), (op.label, m, n)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_every_named_operator_composes_blockwise(name):
    op = NAMED[name]()
    for other in (make_operator("D"), make_operator("J", SQRT5_PARAM), make_operator("A")):
        for pair in ((op, other), (other, op)):
            try:
                prod = compose(*pair)
            except InfiniteSumError:
                continue
            for m, n in SHAPES:
                assert truncate(prod, m, n) == entrywise(prod, m, n), (prod.label, m, n)


def test_powers_and_factor_chains_match_entry_oracle():
    p_minus_d = lin_comb(1, make_operator("P"), -1, make_operator("D"))
    cases = [
        op_power(pd(), 2),
        op_power(ptd(), 3),
        op_power(p_minus_d, 3),
        op_power(make_operator("Jinv", SQRT5_PARAM), 2),
        op_power(compose(make_N(), make_M()), 2),
        factor_chain("H", 4),
        factor_chain("U", 4),
        compose(compose(factor_chain("H", 3), ptd()), factor_chain("U", 3)),
    ]
    for op in cases:
        for m, n in SHAPES:
            assert truncate(op, m, n) == entrywise(op, m, n), (op.label, m, n)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_operator_is_zero_outside_its_band(name):
    op = NAMED[name]()
    below, above = op.band.below, op.band.above
    for i in range(16):
        for j in range(16):
            inside = (below is None or j - i >= -below) and (above is None or j - i <= above)
            if not inside:
                assert op.entry(i, j) == 0, (name, i, j)


def test_leaf_fill_reads_entries_inside_the_band_only():
    p = make_operator("P")

    def guarded(i, j):
        assert j <= i, (i, j)
        return p.entry(i, j)

    lower = TriOp(p.band, guarded, "P*")
    op = compose(op_power(lower, 2), compose(make_operator("QT"), make_operator("D")))
    assert truncate(op, 9, 7) == entrywise(op, 9, 7)


def test_closed_form_leaves_match_their_products():
    p, pt, d = make_operator("P"), make_operator("PT"), make_operator("D")
    pairs = [
        (pd(), compose(p, d)),
        (ptd(), compose(pt, d)),
        (zero_top_pdown(), compose(transpose(make_operator("J", 0)), downshift(p))),
    ]
    for leaf, product in pairs:
        assert leaf.band == product.band
        assert entrywise(leaf, 16, 16) == entrywise(product, 16, 16)
    # the basis matrices against the shifts of P^T, Q^T and Q they were built from
    chains = [
        (ptdown(), downshift(pt)),
        (qtdown00(), delete_leading(downshift(make_operator("QT")), 1, 1)),
        (qdown(), downshift(make_operator("Q"))),
    ]
    for leaf, chain in chains:
        assert (leaf.band, leaf.label) == (chain.band, chain.label)
        typed = [[(type(v), v) for v in row] for row in entrywise(leaf, 40, 40).data]
        assert typed == [[(type(v), v) for v in row] for row in entrywise(chain, 40, 40).data]
    assert pd().entry(5, 2) == 10 and pd().entry(5, 3) == -10
    assert ptd().entry(2, 5) == -10
    assert zero_top_pdown().entry(7, 2) == binomial(4, 2)


def naive_product(a, b):
    return DenseMat.from_rows(
        [[sum(a[i, k] * b[k, j] for k in range(a.cols)) for j in range(b.cols)]
         for i in range(a.rows)]
    )


def _random_scalar(rng, kind):
    if rng.random() < 0.4:
        return 0
    v = rng.randint(-4, 4)
    if kind == "int":
        return v
    if kind == "Fraction":
        return Fraction(v, rng.randint(1, 5))
    return QuadExt(Fraction(v, rng.randint(1, 3)), rng.choice((0, 0, 1, Fraction(-1, 2))), 5)


@pytest.mark.parametrize("kind", ["int", "Fraction", "QuadExt"])
def test_dense_product_matches_naive_product(kind):
    rng = random.Random(f"matmul:{kind}")
    for _ in range(20):
        r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = DenseMat.from_rows([[_random_scalar(rng, kind) for _ in range(k)] for _ in range(r)])
        b = DenseMat.from_rows([[_random_scalar(rng, kind) for _ in range(c)] for _ in range(k)])
        got = a @ b
        assert (got.rows, got.cols) == (r, c)
        assert got == naive_product(a, b)


def test_operator_modules_hold_no_caches():
    for mod in (operators, eigenstructure):
        cached = [name for name, v in vars(mod).items() if hasattr(v, "cache_info")]
        assert cached == [], mod.__name__
    for op in (compose(make_operator("P"), make_operator("D")), op_power(pd(), 2)):
        assert not hasattr(op.entry, "cache_info")


def test_no_module_of_the_package_holds_an_lru_cache():
    for info in pkgutil.iter_modules(pascalinv.__path__):
        mod = importlib.import_module(f"pascalinv.{info.name}")
        cached = [name for name, v in vars(mod).items() if hasattr(v, "cache_info")]
        assert cached == [], info.name
    for path in Path(pascalinv.__file__).parent.glob("*.py"):
        assert "lru_cache" not in path.read_text(encoding="utf-8"), path.name


def _retained_bytes(fn):
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current


def test_block_diag_retains_nothing_that_grows_with_size():
    verify_block_diag(2)  # warm: first-call allocations are not retention
    small = _retained_bytes(lambda: verify_block_diag(4))
    large = _retained_bytes(lambda: verify_block_diag(32))
    assert large <= small + 64 * 1024, (small, large)


def test_block_product_truncation_retains_nothing_that_grows_with_size():
    truncate(eigenstructure._conjugated_ptd(), 2, 2)  # warm
    small = _retained_bytes(lambda: truncate(eigenstructure._conjugated_ptd(), 8, 8))
    large = _retained_bytes(lambda: truncate(eigenstructure._conjugated_ptd(), 64, 64))
    assert large <= small + 64 * 1024, (small, large)


@pytest.mark.parametrize("top", range(1, 11))
def test_largest_block_sum_decides_every_smaller_one(top):
    assert verify_block_diag(top) == all(verify_block_diag(m) for m in range(1, top + 1))

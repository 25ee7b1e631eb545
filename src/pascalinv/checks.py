"""Named verification checks and suites behind the ``verify`` CLI subcommand.

Every check is exact: it either reproduces an identity entry for entry or
fails.  Randomised checks draw from a seeded generator so runs are
reproducible.  A check is a generator that yields one truth value per case
(one identity, one random draw or one membership test); ``run_suite`` stops
at the first false case and names its index in ``CheckResult.detail``.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import accumulate, product
from operator import add, neg

from . import eigenstructure as eig
from . import transforms as tr
from .errors import Record
from .operators import compose, make_operator, op_power, pd, ptd, truncate, DenseMat
from .rowrules import Nums
from .sequences import (
    CONTINUED,
    AltBernoulli,
    Bernoulli,
    ExpComb,
    FinSupp,
    KSeq,
    _row_sums,
    apply_upper,
    fibonacci,
    in_eigenspace,
    lucas,
    prefix,
    require_mode,
    shift_down,
)


class RunConfig(Record):
    _fields = ("depth", "mode", "seed")

    def __init__(self, depth: int = 32, mode: str = CONTINUED, seed: int = 0):
        vars(self).update(depth=depth, mode=mode, seed=seed)


class CheckResult(Record):
    _fields = ("name", "passed", "depth", "elapsed_ms", "detail")

    def __init__(self, name: str, passed: bool, depth: int, elapsed_ms: float, detail: str = ""):
        vars(self).update(name=name, passed=passed, depth=depth, elapsed_ms=elapsed_ms,
                          detail=detail)


_SPACES = [eig.EigenSpaceId(op, ev) for op in ("PD", "PTD") for ev in (1, -1)]


def _random_finsupp(rng: random.Random, max_len: int = 8) -> FinSupp:
    # terms Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))), held over 6
    n = rng.randint(1, max_len)
    return FinSupp(Nums([rng.randint(-3, 3) * 6 // rng.choice((1, 1, 2, 3)) for _ in range(n)], 6))


def check_pd_involution(cfg: RunConfig):
    s = cfg.depth
    yield truncate(op_power(pd(), 2), s, s) == DenseMat.identity(s)


def _mutual_inverses(a, b, s: int):
    ident = DenseMat.identity(s)
    for left, right in ((a, b), (b, a)):
        yield truncate(compose(left, right), s, s) == ident


def check_pascal_inverse(cfg: RunConfig):
    p = make_operator("P")
    d = make_operator("D")
    yield from _mutual_inverses(compose(d, compose(p, d)), p, cfg.depth)


def check_ptd_involution(cfg: RunConfig):
    rng = random.Random(cfg.seed)
    op = ptd()
    for _ in range(20):
        x = _random_finsupp(rng)
        yield apply_upper(op, apply_upper(op, x)) == x


def _pd_prefix(x: FinSupp, depth: int) -> FinSupp:
    """The depth-prefix of PD·x, on the integer numerators of x."""
    return FinSupp(_row_sums(pd(), x._nums(depth), depth))


def check_binomial_involution(cfg: RunConfig):
    rng = random.Random(cfg.seed + 1)
    d = cfg.depth
    for _ in range(20):
        x = _random_finsupp(rng)
        yield _pd_prefix(_pd_prefix(x, d), d) == FinSupp(x._nums(d))


def check_nm_identity(cfg: RunConfig):
    yield from eig.nm_columns(cfg.depth)


def check_block_diag(cfg: RunConfig):
    yield from eig.block_diag_columns(cfg.depth)


def _times_h1(v: list) -> list:
    """The row v times H(1) = [1] ⊕ A: entry 0 kept, then from column 1 the
    running alternating sums t_j = v_j - t_(j-1)."""
    w = v[1:]
    w[1::2] = map(neg, w[1::2])
    t = list(accumulate(w))
    t[1::2] = map(neg, t[1::2])
    return [v[0], *t]


def check_stabilization(cfg: RunConfig):
    # N = (I_2 ⊕ N)·H(1) row by row of N (cases 0..d-1), then
    # M = U(1)·(I_2 ⊕ M) column by column of M (cases d..2d-1), on the d×d
    # block; by induction on m this is H(m)⋯H(1) = N and U(1)⋯U(m) = M on the
    # 2m×2m corner for every 2m <= d (see README)
    s = cfg.depth
    if s < 2:
        return
    units = ([1] + [0] * s, [0, 1] + [0] * (s - 1))  # e_0 and e_1, s + 1 long
    # back, last: rows r and r+1 of I_2 ⊕ N, that is rows r-2 and r-1 of N
    # shifted right by two (e_0 and e_1 for r < 2)
    back, last = units
    for r in range(s):
        row = eig.n_row(r, s)
        yield _times_h1(back[:s]) == row
        back, last = last, [0, 0, *row]
    # back, last: columns j and j+1 of I_2 ⊕ M, that is columns j-2 and j-1
    # of M shifted down by two, one row past the block
    back, last = units
    for j in range(s):
        col = eig.m_column(j, s)
        # U(1) = [1] ⊕ J(1) adds entry i+1 to entry i from i = 1 on
        yield [back[0], *map(add, back[1:s], back[2:])] == col
        back, last = last, [0, 0, *col]


def check_basis_eigen(cfg: RunConfig):
    for space, j in product(_SPACES, range(9)):
        vec = eig.basis_vector(space, j)
        yield in_eigenspace(vec, space.kind, space.eigenvalue, cfg.depth)


def check_basis_matrix_agreement(cfg: RunConfig):
    # two closed forms per vector: the basis_vector rule (rows of N for the
    # first kind, binomials for the second) against the matrix's Riordan pair
    d = cfg.depth
    for space in _SPACES:
        mat = truncate(eig.BASIS_MATRICES[space.kind, space.eigenvalue](), d, 9)
        for j, col in enumerate(zip(*mat.data)):
            yield tuple(prefix(eig.basis_vector(space, j), d)) == col


_TABLE1_B = [
    Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30),
    Fraction(0), Fraction(1, 42), Fraction(0), Fraction(-1, 30), Fraction(0),
    Fraction(5, 66), Fraction(0), Fraction(-691, 2730),
]
_TABLE1_DB = [
    Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30),
    Fraction(0), Fraction(1, 42), Fraction(0), Fraction(-1, 30), Fraction(0),
    Fraction(5, 66), Fraction(0), Fraction(-691, 2730),
]
_TABLE1_K = [
    Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(1, 6),
    Fraction(1, 15), Fraction(1, 30), Fraction(1, 35), Fraction(1, 70),
    Fraction(-1, 105), Fraction(-1, 210), Fraction(41, 1155), Fraction(41, 2310),
]


def check_table1(cfg: RunConfig):
    for seq, row in ((Bernoulli, _TABLE1_B), (AltBernoulli, _TABLE1_DB), (KSeq, _TABLE1_K)):
        yield prefix(seq(), 13) == row


def _agree(x, y, dep: int) -> bool:
    """x equals y at every index when both are ``ExpComb`` (geometric sequences
    with distinct ratios are linearly independent, so the canonical pairs
    decide); otherwise x and y agree on their first dep terms."""
    if isinstance(x, ExpComb) and isinstance(y, ExpComb):
        return x == y
    return prefix(x, dep) == prefix(y, dep)


def check_transform_orbit(cfg: RunConfig):
    dep = cfg.depth
    fib, luc = fibonacci(), lucas()
    j0f, j0l = shift_down(fib), shift_down(luc)
    yield _agree(tr.t42c(luc), fib, dep)
    yield _agree(tr.t42d(fib), luc, dep)
    yield _agree(tr.t42a(j0f), j0l, dep)
    yield _agree(tr.t42b(j0l, cfg.mode), j0f, dep)
    yield _agree(tr.t42c(AltBernoulli()), KSeq(), dep)
    yield _agree(tr.t42d(KSeq()), AltBernoulli(), dep)


def check_power_columns(cfg: RunConfig):
    for base in ("P+D", "P-D", "PT+D", "PT-D"):
        kind, sign = tr.power_column_class(base)
        for n, j in product((1, 2), range(5)):
            col = tr.power_column(base, n, j)
            yield in_eigenspace(col, kind, sign, cfg.depth, cfg.mode)


def check_orthogonality(cfg: RunConfig):
    rng = random.Random(cfg.seed + 2)
    for _ in range(10):
        j, jj = rng.randint(0, 6), rng.randint(0, 6)
        for sign in (1, -1):
            x = eig.basis_vector(eig.EigenSpaceId("PD", sign), j)
            y = eig.basis_vector(eig.EigenSpaceId("PTD", -sign), jj)
            yield tr.orthogonality(x, y, cfg.depth) == 0
    for base, sign in (("P+D", -1), ("P-D", 1)):
        y = eig.basis_vector(eig.EigenSpaceId("PTD", sign), 2)
        yield tr.converse_check(y, base, cfg.depth)


def check_pipeline_classes(cfg: RunConfig):
    rng = random.Random(cfg.seed + 3)
    for build, variant, n in product((tr.build_phi, tr.build_psi), ("plain", "tilde"), (1, 2, 3)):
        pipe = build(n, variant)
        kind, sign = pipe.output_class()
        for _ in range(3):
            y = pipe.apply(_random_finsupp(rng, max_len=5), cfg.mode)
            yield in_eigenspace(y, kind, sign, cfg.depth, cfg.mode)


SUITES = {
    "inversion": {
        "pd-involution": check_pd_involution,
        "pascal-inverse": check_pascal_inverse,
        "ptd-involution": check_ptd_involution,
        "binomial-involution": check_binomial_involution,
    },
    "similarity": {
        "NM-identity": check_nm_identity,
        "block-diag": check_block_diag,
        "stabilization": check_stabilization,
    },
    "eigen": {
        "basis-eigen": check_basis_eigen,
        "basis-matrix-agreement": check_basis_matrix_agreement,
    },
    "transforms": {
        "table1": check_table1,
        "transform-orbit": check_transform_orbit,
        "power-columns": check_power_columns,
        "orthogonality": check_orthogonality,
        "pipeline-classes": check_pipeline_classes,
    },
}


def run_suite(suite: str, cfg: RunConfig) -> list[CheckResult]:
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    require_mode(cfg.mode)
    results = []
    for name in names:
        for check_name, check in SUITES[name].items():
            start = time.perf_counter()
            failed = next((k for k, ok in enumerate(check(cfg)) if not ok), None)
            elapsed = (time.perf_counter() - start) * 1000.0
            detail = "" if failed is None else f"case {failed}"
            results.append(CheckResult(check_name, failed is None, cfg.depth, elapsed, detail))
    return results

"""Named verification checks and suites behind the ``verify`` CLI subcommand.

Every check is exact: it either reproduces an identity entry for entry or
fails.  Randomised checks draw from a seeded generator so runs are
reproducible.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

from . import eigenstructure as eig
from . import transforms as tr
from .errors import Record
from .operators import compose, make_operator, op_power, pd, ptd, truncate, DenseMat
from .sequences import (
    CONTINUED,
    AltBernoulli,
    Bernoulli,
    FinSupp,
    KSeq,
    apply_finite,
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
    n = rng.randint(1, max_len)
    terms = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)]
    return FinSupp(terms)


def check_pd_involution(cfg: RunConfig):
    s = cfg.depth
    ok = truncate(op_power(pd(), 2), s, s) == DenseMat.identity(s)
    return "pd-involution", ok


def check_pascal_inverse(cfg: RunConfig):
    s = cfg.depth
    p = make_operator("P")
    d = make_operator("D")
    dpd = compose(d, compose(p, d))
    ok = truncate(compose(dpd, p), s, s) == DenseMat.identity(s)
    ok = ok and truncate(compose(p, dpd), s, s) == DenseMat.identity(s)
    return "pascal-inverse", ok


def check_ptd_involution(cfg: RunConfig):
    rng = random.Random(cfg.seed)
    op = ptd()
    ok = True
    for _ in range(20):
        x = _random_finsupp(rng)
        twice = apply_upper(op, apply_upper(op, x))
        if twice != x:
            ok = False
            break
    return "ptd-involution", ok


def check_binomial_involution(cfg: RunConfig):
    rng = random.Random(cfg.seed + 1)
    op = pd()
    ok = True
    for _ in range(20):
        x = _random_finsupp(rng)
        once = FinSupp(apply_finite(op, x, cfg.depth))
        twice = apply_finite(op, once, cfg.depth)
        if twice != prefix(x, cfg.depth):
            ok = False
            break
    return "binomial-involution", ok


def check_nm_identity(cfg: RunConfig):
    s = cfg.depth
    n_op, m_op = eig.make_N(), eig.make_M()
    ident = DenseMat.identity(s)
    ok = truncate(compose(n_op, m_op), s, s) == ident
    ok = ok and truncate(compose(m_op, n_op), s, s) == ident
    return "NM-identity", ok


def check_block_diag(cfg: RunConfig):
    # every smaller block sum is the top-left corner of the largest one
    m = min(8, cfg.depth // 2)
    ok = m < 1 or eig.verify_block_diag(m)
    return "block-diag", ok


def check_stabilization(cfg: RunConfig):
    # H(k) and U(k) are the identity below index 2k-1, so every smaller chain
    # is the top-left corner of the chain at the largest m
    m = min(6, cfg.depth // 2)
    s = 2 * m
    ok = m < 1 or (
        truncate(eig.factor_chain("H", m), s, s) == truncate(eig.make_N(), s, s)
        and truncate(eig.factor_chain("U", m), s, s) == truncate(eig.make_M(), s, s)
    )
    return "stabilization", ok


def check_basis_eigen(cfg: RunConfig):
    ok = True
    for space in _SPACES:
        for j in range(9):
            vec = eig.basis_vector(space, j)
            if not in_eigenspace(vec, space.kind, space.eigenvalue, cfg.depth):
                ok = False
    return "basis-eigen", ok


def check_basis_matrix_agreement(cfg: RunConfig):
    ok = True
    for space in _SPACES:
        mat = eig.BASIS_MATRICES[space.kind, space.eigenvalue]()
        for j in range(9):
            vec = eig.basis_vector(space, j)
            col = [mat.entry(i, j) for i in range(cfg.depth)]
            if prefix(vec, cfg.depth) != col:
                ok = False
    return "basis-matrix-agreement", ok


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
    ok = prefix(Bernoulli(), 13) == _TABLE1_B
    ok = ok and prefix(AltBernoulli(), 13) == _TABLE1_DB
    ok = ok and prefix(KSeq(), 13) == _TABLE1_K
    return "table1", ok


def check_transform_orbit(cfg: RunConfig):
    dep = cfg.depth
    fib, luc = fibonacci(), lucas()
    j0f, j0l = shift_down(fib), shift_down(luc)
    ok = prefix(tr.t42c(luc), dep) == prefix(fib, dep)
    ok = ok and prefix(tr.t42d(fib), dep) == prefix(luc, dep)
    ok = ok and prefix(tr.t42a(j0f), dep) == prefix(j0l, dep)
    ok = ok and prefix(tr.t42b(j0l, cfg.mode), dep) == prefix(j0f, dep)
    ok = ok and prefix(tr.t42c(AltBernoulli()), dep) == prefix(KSeq(), dep)
    ok = ok and prefix(tr.t42d(KSeq()), dep) == prefix(AltBernoulli(), dep)
    return "transform-orbit", ok


def check_power_columns(cfg: RunConfig):
    ok = True
    for base in ("P+D", "P-D", "PT+D", "PT-D"):
        kind, sign = tr.power_column_class(base)
        for n in (1, 2):
            for j in range(5):
                col = tr.power_column(base, n, j)
                if not in_eigenspace(col, kind, sign, cfg.depth, cfg.mode):
                    ok = False
    return "power-columns", ok


def check_orthogonality(cfg: RunConfig):
    rng = random.Random(cfg.seed + 2)
    ok = True
    for _ in range(10):
        j, jj = rng.randint(0, 6), rng.randint(0, 6)
        x = eig.basis_vector(eig.EigenSpaceId("PD", 1), j)
        y = eig.basis_vector(eig.EigenSpaceId("PTD", -1), jj)
        if tr.orthogonality(x, y, cfg.depth) != 0:
            ok = False
        x = eig.basis_vector(eig.EigenSpaceId("PD", -1), j)
        y = eig.basis_vector(eig.EigenSpaceId("PTD", 1), jj)
        if tr.orthogonality(x, y, cfg.depth) != 0:
            ok = False
    for base, space in (("P+D", ("PTD", -1)), ("P-D", ("PTD", 1))):
        y = eig.basis_vector(eig.EigenSpaceId(*space), 2)
        if not tr.converse_check(y, base, min(cfg.depth, 24)):
            ok = False
    return "orthogonality", ok


def check_pipeline_classes(cfg: RunConfig):
    rng = random.Random(cfg.seed + 3)
    ok = True
    builders = [
        (tr.build_phi, "plain"), (tr.build_phi, "tilde"),
        (tr.build_psi, "plain"), (tr.build_psi, "tilde"),
    ]
    dep = min(cfg.depth, 24)
    for build, variant in builders:
        for n in (1, 2, 3):
            pipe = build(n, variant)
            kind, sign = pipe.output_class()
            for _ in range(3):
                y = pipe.apply(_random_finsupp(rng, max_len=5), cfg.mode)
                if not in_eigenspace(y, kind, sign, dep, cfg.mode):
                    ok = False
    return "pipeline-classes", ok


SUITES = {
    "inversion": [
        check_pd_involution,
        check_pascal_inverse,
        check_ptd_involution,
        check_binomial_involution,
    ],
    "similarity": [check_nm_identity, check_block_diag, check_stabilization],
    "eigen": [check_basis_eigen, check_basis_matrix_agreement],
    "transforms": [
        check_table1,
        check_transform_orbit,
        check_power_columns,
        check_orthogonality,
        check_pipeline_classes,
    ],
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
        for fn in SUITES[name]:
            start = time.perf_counter()
            check_name, passed = fn(cfg)
            elapsed = (time.perf_counter() - start) * 1000.0
            results.append(CheckResult(check_name, passed, cfg.depth, elapsed))
    return results

"""Similarity machinery for the signed Pascal involutions and their eigenbases.

The involution P^T D is similar, through an explicit unit upper-triangular N
with inverse M, to an infinite direct sum of 2x2 blocks; D M^T D conjugates
P D to the mirrored block sum.  The columns of four staggered Pascal-type
matrices then give bases of the four eigenspaces (eigenvalues +1 and -1 of
P D and P^T D), and expansion in those bases is a triangular solve.
"""
from __future__ import annotations

from functools import reduce
from math import comb

from .errors import Record
from .operators import (
    LOWER,
    UPPER,
    TriOp,
    banded,
    compose,
    make_operator,
    pd,
    ptd,
    transpose,
    truncate,
)
from .rowrules import Nums
from .scalars import binomial, exact_div
from .sequences import FIRST, SECOND, FinSupp, Lazy, Seq, prefix


def _n_entry(i: int, j: int) -> int:
    if i == 0 or j == 0:
        return 1 if i == j else 0
    if i > j:
        return 0
    k = (i - 1) // 2
    c = comb(k + j - i, k)
    return -c if (j - i) & 1 else c


def _m_entry(i: int, j: int) -> int:
    return binomial(j // 2, j - i)  # 0 below the diagonal and once j - i > j // 2


def make_N() -> TriOp:
    """The stabilised product of the H factors, by its closed-form entries."""
    return TriOp(UPPER, _n_entry, "N", ("N",))


def make_M() -> TriOp:
    """The inverse of N (stabilised product of the U factors)."""
    return TriOp(UPPER, _m_entry, "M", ("M",))


def n_row(r: int, s: int) -> list:
    """Columns 0..s-1 of row r < s of N by its row rule: row 0 is e_0, and row
    r >= 1 holds (-1)^m C(k+m, k) at column r+m, k = (r-1)//2, each entry
    stepped from the one before by one multiply and one exact divide."""
    if r == 0:
        return [1] + [0] * (s - 1)
    k, c, row = (r - 1) // 2, 1, [0] * r
    for m in range(s - r):
        row.append(c)
        c = -c * (k + m + 1) // (m + 1)
    return row


def m_column(j: int, s: int) -> list:
    """Rows 0..s-1 of column j < s of M by its column rule
    z^⌈j/2⌉ (1+z)^⌊j/2⌋: C(n, t) at row j-n+t, n = j//2, stepped down the column."""
    n = j // 2
    col, c = [0] * (j - n), 1
    for t in range(min(n + 1, s - j + n)):
        col.append(c)
        c = c * (n - t) // (t + 1)
    return col + [0] * (s - len(col))


def make_factor(kind: str, k: int) -> TriOp:
    """Factor H(k) or U(k): the identity below index 2k-1, then an A or J(1) block.

    The block offset 2k-1 is forced by H(1)*U(1) = I and by matching the
    closed forms of N and M.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    offset = 2 * k - 1
    if kind == "H":
        block = make_operator("A")
        band = UPPER
    elif kind == "U":
        block = make_operator("J", 1)
        band = banded(0, 1)
    else:
        raise ValueError(f"kind must be 'H' or 'U', got {kind!r}")
    be = block.entry

    def entry(i, j, o=offset, be=be):
        if i < o or j < o:
            return 1 if i == j else 0
        return be(i - o, j - o)

    return TriOp(band, entry, f"{kind}({k})")


def factor_chain(kind: str, m: int) -> TriOp:
    """H(m)*...*H(1) for kind 'H', or U(1)*...*U(m) for kind 'U'."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ks = range(m, 0, -1) if kind == "H" else range(1, m + 1)
    return reduce(compose, [make_factor(kind, k) for k in ks])


def _conjugated_ptd() -> TriOp:
    return compose(compose(make_N(), ptd()), make_M())


def _conjugated_pd() -> TriOp:
    d = make_operator("D")
    dmtd = compose(d, compose(transpose(make_M()), d))
    dntd = compose(d, compose(transpose(make_N()), d))
    return compose(compose(dmtd, pd()), dntd)


def _binomial(n: int, r: int) -> int:
    """C(n, r) for any integer n (Concrete Mathematics 5.1); scalars.binomial is 0 for n < 0."""
    if r < 0:
        return 0
    return comb(n, r) if n >= 0 else (-1) ** r * comb(r - n - 1, r)


# The transposed similarity products in closed form.  N^T is the double Riordan
# array (1; z/(1+z), z): column c >= 1 is z^c/(1+z)^(k+1), k = (c-1)//2.  Row i of
# M^T x is [z^i] (1+z)^(i//2) X(z), so (M^T N^T)_ic = C(i//2 - k - 1, i - c), which
# is 0 for i > c.  DP = (1/(1+z), -z/(1+z)) takes column c >= 1 of N^T to
# (-1)^c z^c (1+z)^(k-c) and column 0 to 1/(1+z).  M^T·DP·N^T is the transpose of
# N·P^T D·M, and D times it times D is the first-kind product D M^T D·PD·D N^T D.
def _mn_entry(i: int, c: int) -> int:
    return _binomial(i // 2 - (c - 1) // 2 - 1, i - c) if c else int(i == 0)


def _mdpn_entry(i: int, c: int) -> int:
    if c == 0:
        return _binomial(i // 2 - 1, i)
    return (-1 if c & 1 else 1) * _binomial(i // 2 + (c - 1) // 2 - c, i - c)


def _columns(entry, target, s: int):
    """One truth value per column c < s: column c of entry is 0 but for target[c % 2] from row c."""
    for c in range(s):
        yield [entry(i, c) for i in range(s)] == ([0] * c + target[c & 1] + [0] * s)[:s]


def nm_columns(s: int):
    """N·M = I on the s×s block, column by column of M^T N^T.  N and M are unit
    upper triangular, so N_s M_s = I_s also gives M_s N_s = I_s."""
    return _columns(_mn_entry, ([1], [1]), s)


def block_diag_columns(s: int):
    """Both products are 2x2 block sums on the s×s block, column by column of
    M^T·DP·N^T against the sum of [[1, 0], [-1, -1]], the transposed block."""
    return _columns(_mdpn_entry, ([1, -1], [-1]), s)


def verify_block_diag(m: int) -> bool:
    """Check both similarity products against their 2x2 block sums on a 2m block."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return all(block_diag_columns(2 * m))


def ptdown() -> TriOp:
    """Down-shifted transposed Pascal matrix, entry (i, j) = C(j, i-j); its
    columns span the +1 space of P^T D.

    Column j is (z + z^2)^j."""
    return TriOp(LOWER, lambda i, j: binomial(j, i - j), "P^T↓", ("ptdown",))


def qtdown00() -> TriOp:
    """Down-shifted Q^T with row 0 and column 0 removed, entry (i, j) = Q[j+1, i-j];
    columns span the -1 space of P^T D.

    Column j is (1 + 2z)(z + z^2)^j."""
    q = make_operator("Q").entry
    return TriOp(LOWER, lambda i, j: q(j + 1, i - j), "Q^T↓(1|1)", ("qtdown00",))


def qdown() -> TriOp:
    """Down-shifted Q, entry (i, j) = Q[i-j, j]; its columns span the +1 space of P D.

    Column j is (2 - z)/(1 - z) (z^2/(1 - z))^j."""
    q = make_operator("Q").entry
    return TriOp(LOWER, lambda i, j: q(i - j, j), "Q↓", ("qdown",))


def zero_top_pdown() -> TriOp:
    """Down-shifted Pascal matrix under one zero row, entry (i, j) = C(i-1-j, j);
    columns span the -1 space of P D.

    Column j is z/(1 - z) (z^2/(1 - z))^j."""
    return TriOp(LOWER, lambda i, j: binomial(i - 1 - j, j), "J(0)^T·P↓", ("zero_top_pdown",))


# (kind, sign) -> the matrix whose columns span that eigenspace: the sign's
# eigenspace of P D for the first kind, of P^T D for the second
BASIS_MATRICES = {
    (FIRST, 1): qdown,
    (FIRST, -1): zero_top_pdown,
    (SECOND, 1): ptdown,
    (SECOND, -1): qtdown00,
}


class EigenSpaceId(Record):
    """One of the four eigenspaces: operator 'PD' or 'PTD', eigenvalue +1 or -1."""

    _fields = ("operator", "eigenvalue")

    def __init__(self, operator: str, eigenvalue: int):
        if operator not in ("PD", "PTD"):
            raise ValueError(f"operator must be 'PD' or 'PTD', got {operator!r}")
        if eigenvalue not in (1, -1):
            raise ValueError("eigenvalue must be +1 or -1")
        vars(self).update(operator=operator, eigenvalue=eigenvalue)

    @property
    def kind(self) -> str:
        """The invariance kind of the space's members: first for P D, second for P^T D."""
        return FIRST if self.operator == "PD" else SECOND


def basis_vector(space: EigenSpaceId, j: int) -> Seq:
    """The j-th basis vector of the given eigenspace.

    The P^T D spaces have finitely supported bases, returned as explicit
    term tuples.  The P D spaces have infinite basis vectors, returned as
    lazy sequences whose prefixes are signed rows 2j and 2j+1 of N
    (``n_row``); callers choose how far to expand them.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if space.kind == SECOND:
        if space.eigenvalue == 1:
            return FinSupp([0] * j + [binomial(j, t) for t in range(j + 1)])
        return FinSupp(
            [0] * j + [binomial(j + 1, t) + binomial(j, t - 1) for t in range(j + 2)]
        )
    sign = space.eigenvalue

    def rows(depth):
        # term i is (-1)^i (2 N[2j, i] - N[2j+1, i]) for +1, (-1)^(i+1) N[2j+1, i] for -1
        s = max(depth, 2 * j + 2)  # n_row(r, s) needs r < s
        odd = n_row(2 * j + 1, s)
        col = odd if sign == -1 else [2 * a - b for a, b in zip(n_row(2 * j, s), odd)]
        start = (1 + sign) // 2  # the odd terms change sign for +1, the even ones for -1
        col[start::2] = [-t for t in col[start::2]]
        return Nums(col, 1)

    return Lazy(rows=rows, label=f"E{sign:+d}(PD) basis {j}")


class CoordResult(Record):
    """Expansion data from a staggered-basis solve."""

    _fields = ("coefficients", "residual_ok", "pivot_rows")

    def __init__(self, coefficients: list, residual_ok: bool, pivot_rows: list):
        vars(self).update(coefficients=coefficients, residual_ok=residual_ok,
                          pivot_rows=pivot_rows)


def coords_first_kind(x: Seq, sign: int, depth: int) -> CoordResult:
    """Expand a prefix of x in the first-kind basis for the given sign.

    Pivots sit at every other row (leading entries 2 for sign +1, 1 for
    sign -1), so the non-pivot rows carry real constraints: ``residual_ok``
    is the membership verdict at this depth.
    """
    basis = _basis(FIRST, sign, depth)
    return _expand(basis, prefix(x, depth), range((1 - sign) // 2, depth, 2))


def formal_coords_second_kind(x: Seq, sign: int, depth: int) -> CoordResult:
    """Expand a prefix of x in the second-kind basis for the given sign.

    Both basis matrices are unit lower triangular with a pivot in every row,
    so the solve always succeeds; the coefficients are formal expansion data
    and carry no membership information.
    """
    return _expand(_basis(SECOND, sign, depth), prefix(x, depth), range(depth))


def _basis(kind: str, sign: int, depth: int) -> TriOp:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    return BASIS_MATRICES[kind, sign]()


def _expand(basis: TriOp, xs: list, pivots: range) -> CoordResult:
    """Solve for coefficient j on pivot row pivots[j] by forward substitution
    over the basis columns; ``residual_ok`` says every other row agrees."""
    rows = truncate(basis, len(xs), len(pivots)).data
    coeffs: list = []

    def dot(i):
        return sum(c * b for c, b in zip(coeffs, rows[i]))

    for j, i in enumerate(pivots):
        acc = xs[i] - dot(i)
        lead = rows[i][j]
        coeffs.append(acc if lead == 1 else exact_div(acc, lead))
    residual_ok = all(dot(i) == xs[i] for i in range(len(xs)) if i not in pivots)
    return CoordResult(coeffs, residual_ok, list(pivots))

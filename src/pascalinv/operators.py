"""Lazy infinite triangular and banded matrices with exact entry oracles.

A :class:`TriOp` is a pure function (i, j) -> scalar together with band
metadata bounding its support.  Operators are never materialised; composition
builds a new oracle whose inner summation range is finite by construction and
records its two factors, so :func:`truncate` produces an exact finite block by
multiplying finite blocks of the factors, or from the closed Riordan pair of
the operator when it has one (a table operator, or a product of them).
"""
from __future__ import annotations

import json
import sys
from typing import Callable, Optional

from .errors import InfiniteSumError, Record
from .scalars import Scalar, binomial, exact_div, format_scalar, scalar_to_json


class Band(Record):
    """Support bound: entry(i, j) may be nonzero only if -below <= j - i <= above.

    ``None`` means unbounded on that side.
    """

    _fields = ("below", "above")

    def __init__(self, below: Optional[int], above: Optional[int]):
        vars(self).update(below=below, above=above)

    def span(self, i: int, n: int) -> range:
        """The columns j < n of row i that lie inside the band."""
        lo = 0 if self.below is None else max(0, i - self.below)
        hi = n if self.above is None else min(n, i + self.above + 1)
        return range(lo, hi)


LOWER = Band(None, 0)
UPPER = Band(0, None)


def banded(lo: int, hi: int) -> Band:
    return Band(lo, hi)


def _or_end(bound: Optional[int]) -> int:
    """A band side, unbounded (``None``) read as a bound past every index."""
    return sys.maxsize if bound is None else bound


def _bound_add(x: Optional[int], y: Optional[int]) -> Optional[int]:
    if x is None or y is None:
        return None
    return x + y


def _bound_max(x: Optional[int], y: Optional[int]) -> Optional[int]:
    if x is None or y is None:
        return None
    return max(x, y)


class TriOp(Record):
    """Immutable lazily evaluated infinite matrix; ``entry`` takes no part in ``==``."""

    _fields = ("band", "label", "tag")

    def __init__(self, band: Band, entry: Callable[[int, int], Scalar], label: str,
                 tag: Optional[tuple] = None):
        vars(self).update(band=band, entry=entry, label=label, tag=tag)

    @property
    def shape(self) -> str:
        b = self.band
        if b.below is None and b.above is None:
            return "general"
        if b.below is None:
            return "lower" if b.above == 0 else "lower-banded"
        if b.above is None:
            return "upper" if b.below == 0 else "upper-banded"
        return "banded"

    def __repr__(self):
        return f"TriOp({self.label!r}, {self.shape})"


def _q_entry(i: int, j: int) -> int:
    # block sum P + (1 (+) P): the corner of the second block contributes 1 at (0, 0)
    block = 1 if i == 0 and j == 0 else binomial(i - 1, j - 1)
    return binomial(i, j) + block


# name -> (band, entry, label) of every operator that takes no parameter
_NAMED = {
    "P": (LOWER, lambda i, j: binomial(i, j), "P"),
    "PT": (UPPER, lambda i, j: binomial(j, i), "P^T"),
    "D": (banded(0, 0), lambda i, j: (-1) ** i if i == j else 0, "D"),
    "A": (UPPER, lambda i, j: (-1) ** (j - i) if i <= j else 0, "A"),
    "L": (LOWER, lambda i, j: (-1) ** (i + j) if i >= j else 0, "L"),
    "Omega": (LOWER, lambda i, j: 1 if i >= j else 0, "Ω"),
    "Q": (LOWER, _q_entry, "Q"),
    "QT": (UPPER, lambda i, j: _q_entry(j, i), "Q^T"),
    "PD": (LOWER, lambda i, j: (-1) ** j * binomial(i, j), "PD"),
    "PTD": (UPPER, lambda i, j: (-1) ** j * binomial(j, i), "P^T D"),
}


def make_operator(name: str, param: Scalar | None = None) -> TriOp:
    """Construct a named operator.

    ``J`` and ``Jinv`` take the diagonal value as ``param``; ``Jinv`` requires
    it nonzero.  All other names take no parameter.
    """
    if name in ("J", "Jinv"):
        if param is None:
            raise ValueError(f"{name} requires a parameter")
    elif param is not None:
        raise ValueError(f"{name} takes no parameter")
    if name == "J":
        entry = lambda i, j: param if j == i else int(j == i + 1)
        return TriOp(banded(0, 1), entry, f"J({format_scalar(param)})", ("J", param))
    if name == "Jinv":
        if param == 0:
            raise ValueError("Jinv parameter must be nonzero")
        ainv = exact_div(1, param)
        entry = lambda i, j: (-1) ** (j - i) * ainv ** (j - i + 1) if i <= j else 0
        return TriOp(UPPER, entry, f"J({format_scalar(param)})^-1", ("Jinv", param))
    if name not in _NAMED:
        raise ValueError(f"unknown operator name: {name!r}")
    band, entry, label = _NAMED[name]
    return TriOp(band, entry, label, (name,))


def pd() -> TriOp:
    """The signed Pascal involution: entry (i, j) = C(i, j) * (-1)^j, lower triangular."""
    return make_operator("PD")


def ptd() -> TriOp:
    """The transposed signed Pascal involution: entry (i, j) = C(j, i) * (-1)^j, upper triangular."""
    return make_operator("PTD")


def transpose(op: TriOp) -> TriOp:
    inner = op.entry
    return TriOp(
        Band(op.band.above, op.band.below),
        lambda i, j: inner(j, i),
        f"{op.label}^T",
    )


def lin_comb(c1: Scalar, op1: TriOp, c2: Scalar, op2: TriOp) -> TriOp:
    """Entrywise c1*op1 + c2*op2; the band is the union of the two bands."""
    e1, e2 = op1.entry, op2.entry

    def entry(i, j):
        return c1 * e1(i, j) + c2 * e2(i, j)

    def term(c, lab):
        if c == 1:
            return f"+{lab}"
        if c == -1:
            return f"-{lab}"
        return f"+{format_scalar(c)}·{lab}"

    label = (term(c1, op1.label) + term(c2, op2.label)).lstrip("+")
    band = Band(
        _bound_max(op1.band.below, op2.band.below),
        _bound_max(op1.band.above, op2.band.above),
    )
    return TriOp(band, entry, label)


def compose(left: TriOp, right: TriOp) -> TriOp:
    """Matrix product with a finite inner summation range for every entry.

    Legality is decided from the band metadata alone: the inner index is
    bounded above by ``i + left.above`` or ``j + right.below``, so at least
    one of those must be finite.  The tag ``("compose", left, right)`` keeps
    the factors for :func:`truncate`; ``entry`` sums one entry on its own.
    """
    lb, rb = left.band, right.band
    if lb.above is None and rb.below is None:
        raise InfiniteSumError(
            f"compose({left.label}, {right.label}): inner summation range is unbounded"
        )
    le, re_ = left.entry, right.entry
    # k runs over the columns of row i of left that meet the rows of column j of right
    below_l, above_l, below_r, above_r = map(_or_end, (lb.below, lb.above, rb.below, rb.above))

    def entry(i, j):
        total = 0  # a plain loop: sum() over a generator was ~6% slower on (P+D)^3 columns
        for k in range(max(0, i - below_l, j - above_r), min(i + above_l, j + below_r) + 1):
            total += le(i, k) * re_(k, j)
        return total

    band = Band(_bound_add(lb.below, rb.below), _bound_add(lb.above, rb.above))
    return TriOp(band, entry, f"{left.label}·{right.label}", ("compose", left, right))


def downshift(op: TriOp) -> TriOp:
    """Push column j down by j rows; the result is always lower triangular."""
    inner = op.entry

    def entry(i, j):
        if i < j:
            return 0
        return inner(i - j, j)

    return TriOp(LOWER, entry, f"{op.label}↓")


def delete_leading(op: TriOp, r: int, c: int) -> TriOp:
    """Drop the first r rows and c columns: entry'(i, j) = entry(i + r, j + c)."""
    if r < 0 or c < 0:
        raise ValueError("row/column counts must be nonnegative")
    inner = op.entry

    def shift(bound, delta):
        if bound is None:
            return None
        return max(0, bound + delta)

    band = Band(shift(op.band.below, c - r), shift(op.band.above, r - c))
    return TriOp(band, lambda i, j: inner(i + r, j + c), f"{op.label}({r}|{c})")


def op_power(op: TriOp, n: int) -> TriOp:
    """op**n by squaring, so its factors nest ⌈log2 n⌉ deep: the square of
    op**(n//2), times op when n is odd (op·op·op for n = 3)."""
    if n < 1:
        raise ValueError("power must be >= 1")
    if n == 1:
        return op
    half = op_power(op, n // 2)
    out = compose(half, half)
    if n % 2:
        out = compose(out, op)
    return TriOp(out.band, out.entry, f"({op.label})^{n}", out.tag)


class DenseMat(Record):
    """Finite exact matrix, the result of truncating a lazy operator."""

    _fields = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple):
        vars(self).update(rows=rows, cols=cols, data=data)

    @classmethod
    def from_rows(cls, rows) -> DenseMat:
        # built from a list: a tuple grown from a generator is resized in
        # place, and each one freed that way parks in CPython's tuple free
        # list for its final size, so resident memory climbs with every call
        data = tuple([tuple(row) for row in rows])
        if not data or any(len(r) != len(data[0]) for r in data):
            raise ValueError("rows must be nonempty and rectangular")
        return cls(len(data), len(data[0]), data)

    @classmethod
    def identity(cls, n: int) -> DenseMat:
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __matmul__(self, other: DenseMat) -> DenseMat:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return DenseMat.from_rows(_product(self.data, other.data, other.cols))

    def to_jsonable(self):
        return [[scalar_to_json(e) for e in row] for row in self.data]

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable())

    def to_csv(self) -> str:
        return "\n".join(",".join(format_scalar(e) for e in row) for row in self.data)

    def __str__(self):
        cells = [[format_scalar(e) for e in row] for row in self.data]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
        )


def truncate(op: TriOp, m: int, n: int) -> DenseMat:
    """Exact top-left m x n block of the operator.

    An operator with a Riordan pair (``riordan.pair``: P, D, PD, L, Ω, Q,
    the four eigenbasis matrices, and any composition of these) is read
    column by column from that pair: an s x s block costs O(s^2) integer
    steps and no entry call.  Any other composition is the product of its
    factors' blocks, with the inner size set by the bands; any other
    operator fills each row inside its band from ``entry``.  So an s x s
    block of a product of f lower or upper factors costs O(f s^2) entry
    calls and at most O(f s^3) scalar products, where the entry oracle of
    the same product would sum O(s^(f+1)) terms.
    """
    if m < 1 or n < 1:
        raise ValueError("truncation dimensions must be >= 1")
    return DenseMat.from_rows(_block(op, m, n))


def _block(op: TriOp, m: int, n: int) -> list:
    """Rows 0..m-1, columns 0..n-1 of op, as lists."""
    tag = op.tag
    if tag:
        from . import riordan

        rd = riordan.pair(op)
        if rd is not None:
            return riordan.block(rd, m, n)
        if tag[0] == "compose":
            _, left, right = tag
            # inner indices past row m-1's band in left or column n-1's in right are zero
            k = min(m + _or_end(left.band.above), n + _or_end(right.band.below))
            return _product(_block(left, m, k), _block(right, k, n), n)
    span, entry = op.band.span, op.entry
    rows = []
    for i in range(m):
        cols = span(i, n)
        row = [0] * n
        row[cols.start:cols.stop] = [entry(i, j) for j in cols]
        rows.append(row)
    return rows


def _product(a, b, n: int) -> list:
    """Rows of the product of a and b (n columns).

    Each row is the sum of the rows of b scaled by its nonzero entries, and
    each row of b is taken between its first and last nonzero entry only.
    """
    spans = []
    for brow in b:
        nonzero = [j for j, y in enumerate(brow) if y]
        if nonzero:
            lo, hi = nonzero[0], nonzero[-1] + 1
            spans.append((lo, hi, brow[lo:hi]))
        else:
            spans.append(None)
    rows = []
    for row in a:
        out = [0] * n
        for x, span in zip(row, spans):
            if x and span:
                lo, hi, ys = span
                if hi - lo == 1:
                    out[lo] += x * ys[0]
                else:
                    out[lo:hi] = [o + x * y if y else o for o, y in zip(out[lo:hi], ys)]
        rows.append(out)
    return rows

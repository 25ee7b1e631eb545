"""Closed row rules of the row-sum kernel ``sequences._row_sums``.

``ROW_RULES`` maps the head of an operator's tag to a rule
``rule(xs, depth, *params)`` that returns rows 0..depth-1 of the operator
times the sequence whose prefix is xs (terms past its end read as zero),
with the values and types of the entry sums ``sum_k entry(i, k) * x_k``.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Callable

from .scalars import Scalar, exact_div


def differences(row: list) -> list:
    return [row[i + 1] - row[i] for i in range(len(row) - 1)]


def difference_heads(row: list) -> list:
    """Heads Δ^n row_0 of the forward-difference table, n < len(row)."""
    heads = []
    while row:
        heads.append(row[0])
        row = differences(row)
    return heads


def _fit(xs: list, n: int) -> list:
    """xs cut or padded with zeros to length n."""
    return xs[:n] + [0] * (n - len(xs))


def _pd_rows(xs: list, depth: int) -> list:
    # row n is sum_k C(n, k) (-1)**k x_k = (-1)**n Δ^n x_0, off the difference
    # table with subtractions only
    heads = difference_heads(_fit(xs, depth))
    return [h if n % 2 == 0 else -h for n, h in enumerate(heads)]


def _ptd_rows(xs: list, depth: int) -> list:
    # row n is sum_{k>=n} C(k, n) (-1)**k x_k, entry n of the (n+1)-th iterated
    # suffix sum of (-1)**k x_k; each pass keeps the entries from n on
    sums = [0] * depth
    tail = [-x if k % 2 else x for k, x in enumerate(xs)][::-1]
    for n in range(min(depth, len(xs))):
        tail = list(accumulate(tail))
        sums[n] = tail.pop()
    return sums


def _jinv_rows(xs: list, depth: int, a: Scalar) -> list:
    # back-substitution in J(a) y = x: y_i = (x_i - y_{i+1}) / a, zero from len(xs) on
    ys = [0] * (max(depth, len(xs)) + 1)
    for i in range(len(xs) - 1, -1, -1):
        ys[i] = exact_div(xs[i] - ys[i + 1], a)
    return ys[:depth]


def _riordan_rows(d_times: Callable[[list], list], h_step: Callable, lag: int) -> Callable:
    """Rows of the Riordan array whose column j is d(z) h(z)**j, h of order lag:
    d times sum_j x_j h**j, by Horner's rule mod z**depth.  ``h_step(x, s)``
    gives x + h s mod z**(len(s) + lag), and ``d_times(s)`` gives d s mod
    z**len(s)."""
    def rows(xs: list, depth: int) -> list:
        s: list = []
        # the tail sum_{k>j} x_k h**(k-j-1) is multiplied by h**(j+1), of order
        # lag (j+1), so it is needed mod z**(depth - lag (j+1)); from
        # j = ceil(depth / lag) on, x_j h**j lies past the last row
        for j in range(min(len(xs), -(-depth // lag)) - 1, -1, -1):
            s = h_step(xs[j], _fit(s, max(depth - (j + 1) * lag, 0)))
        return d_times(_fit(s, depth))
    return rows


def _pascal_step(x, s: list) -> list:
    # x + (z + z**2) s
    return [x] + [a + b for a, b in zip(s, [0] + s)]


def _catalan_step(x, s: list) -> list:
    # x + z**2 / (1 - z) s
    return [x, 0] + list(accumulate(s))


# tag head -> (row rule, whether it also takes prefixes over Q(√d)).  The
# four eigenbasis matrices of eigenstructure.BASIS_MATRICES are Riordan
# arrays; their rules would give some rows of a Q(√d) prefix another type
# than the entry sums, so such prefixes keep the entry sums.  Their steps are
# written out by hand: a generic Horner rule over the (d, h) pairs of
# riordan.PAIRS (which tests/test_riordan.py ties each rule to) was 2-3x
# slower, as it multiplies and divides by h where these shift and add.
ROW_RULES = {
    "PD": (_pd_rows, True),
    "PTD": (_ptd_rows, True),
    "Jinv": (_jinv_rows, True),
    "ptdown": (_riordan_rows(lambda s: s, _pascal_step, 1), False),
    "qtdown00": (_riordan_rows(
        lambda s: [a + 2 * b for a, b in zip(s, [0] + s)], _pascal_step, 1), False),
    "qdown": (_riordan_rows(
        lambda s: [a + b for a, b in zip(s, accumulate(s))], _catalan_step, 2), False),
    "zero_top_pdown": (_riordan_rows(
        lambda s: ([0] + list(accumulate(s)))[:len(s)], _catalan_step, 2), False),
}

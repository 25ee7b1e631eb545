"""Closed row rules of the row-sum kernel ``sequences._row_sums``.

``ROW_RULES`` maps the head of an operator's tag to a rule
``rule(xs, depth, *params)`` that returns rows 0..depth-1 of the operator
times the sequence whose prefix is xs (terms past its end read as zero),
over any field, with the values and types of the entry sums
``sum_k entry(i, k) * x_k``.  A Riordan array with no rule here takes the
rule of its pair, ``riordan.ROWS``, on integer prefixes.
"""
from __future__ import annotations

from itertools import accumulate
from operator import neg, sub

from .scalars import Scalar, exact_div


def differences(row: list) -> list:
    return list(map(sub, row[1:], row))


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
    heads[1::2] = map(neg, heads[1::2])
    return heads


def _ptd_rows(xs: list, depth: int) -> list:
    # row n is sum_{k>=n} C(k, n) (-1)**k x_k, entry n of the (n+1)-th iterated
    # suffix sum of (-1)**k x_k; each pass keeps the entries from n on
    sums, tail = [0] * depth, list(xs)
    tail[1::2] = map(neg, tail[1::2])
    tail.reverse()
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


ROW_RULES = {
    "PD": _pd_rows,
    "PTD": _ptd_rows,
    "Jinv": _jinv_rows,
}

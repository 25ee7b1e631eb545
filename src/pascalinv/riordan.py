"""Riordan pairs of the Pascal-type lower operators and their closed product.

A Riordan array ``(d, h)`` has column j with generating function
``d(z) h(z)**j``, where h(0) = 0.  ``PAIRS`` gives ``(d, h)`` for the
operators that are Riordan arrays, by the head of their tag; each of ``d``
and ``h`` is a pair ``(num, den)`` of integer polynomials (coefficient
tuples, constant term first) whose ``den`` has constant term +1 or -1, so
every power series below is an exact integer recurrence.  The product of
two arrays is again one (Shapiro, Getu, Woan and Woodson, "The Riordan
group", 1991)::

    (d1, h1) · (d2, h2) = (d1 · d2(h1), h2(h1))

so :func:`block` truncates a table operator, or a product of them, column
by column, ``c_0 = d`` and ``c_{j+1} = c_j · h``, with no entry call and
without multiplying the factors' blocks, and :func:`rows` gives the rows of
such an operator times a sequence for ``sequences._row_sums``.
"""
from __future__ import annotations

from itertools import accumulate
from math import gcd
from typing import Optional

from .rowrules import _fit

_ONE = (1,)
_LESS_Z = (1, -1)  # 1 - z
_PLUS_Z = (1, 1)  # 1 + z

# tag head -> (d, h), each a (numerator, denominator) pair
PAIRS = {
    "P": ((_ONE, _LESS_Z), ((0, 1), _LESS_Z)),
    "D": ((_ONE, _ONE), ((0, -1), _ONE)),
    "PD": ((_ONE, _LESS_Z), ((0, -1), _LESS_Z)),
    "L": ((_ONE, _PLUS_Z), ((0, 1), _ONE)),
    "Omega": ((_ONE, _LESS_Z), ((0, 1), _ONE)),
    "Q": (((2, -1), _LESS_Z), ((0, 1), _LESS_Z)),
    "ptdown": ((_ONE, _ONE), ((0, 1, 1), _ONE)),
    "qtdown00": (((1, 2), _ONE), ((0, 1, 1), _ONE)),
    "qdown": (((2, -1), _LESS_Z), ((0, 0, 1), _LESS_Z)),
    "zero_top_pdown": (((0, 1), _LESS_Z), ((0, 0, 1), _LESS_Z)),
}


def pair(op) -> Optional[tuple]:
    """The ``(d, h)`` pair of op, if op is a table operator or a composition
    of table operators only; otherwise ``None``.  A factor on both sides of a
    composition (a square, as ``op_power`` builds) is read once."""
    tag = op.tag
    if not tag:
        return None
    if tag[0] != "compose":
        return PAIRS.get(tag[0])
    left = pair(tag[1])
    right = left if tag[2] is tag[1] else left and pair(tag[2])
    return right and _product(left, right)


def _product(left: tuple, right: tuple) -> tuple:
    """The pair of the matrix product left · right."""
    (d1, h1), (d2, h2) = left, right
    num, den = _substitute(d2, h1)
    return (_reduce(_mul(d1[0], num), _mul(d1[1], den)), _reduce(*_substitute(h2, h1)))


def _substitute(f: tuple, h: tuple) -> tuple:
    """f(h) for rational functions f = a/b and h = p/q, as
    sum_k a_k p**k q**(n-k) over sum_k b_k p**k q**(n-k), n the degree."""
    (a, b), (p, q) = f, h
    n = max(len(a), len(b)) - 1
    ps, qs = [_ONE], [_ONE]
    for _ in range(n):
        ps.append(_mul(ps[-1], p))
        qs.append(_mul(qs[-1], q))

    def homogenise(c):
        total: tuple = ()
        for k, ck in enumerate(c):
            if ck:
                term = _mul(ps[k], qs[n - k])
                total = _add(total, term if ck == 1 else tuple([ck * t for t in term]))
        return total

    return homogenise(a), homogenise(b)


def block(rd: tuple, m: int, n: int) -> list:
    """Rows 0..m-1, columns 0..n-1 of the Riordan array rd, as lists.

    Column j vanishes above row j (h has order at least 1), so it is kept
    from row j on: ``t_0 = d`` and ``t_j = t_{j-1} · h/z mod z**(m-j)``,
    one multiplication by the numerator of h/z and one division by the
    denominator of h per column."""
    (dn, dd), (hn, hd) = rd
    g = hn[1:]
    t = _over(_fit(list(dn), m), dd)
    cols = [t]
    for j in range(1, min(m, n)):
        t = _over(_times(t, g, m - j), hd)
        cols.append([0] * j + t)
    pad = [0] * (n - m)  # the columns from m on lie above row m - 1
    return [[*r, *pad] for r in zip(*cols)]


def rows(rd: tuple, xs: list, depth: int) -> list:
    """Rows 0..depth-1 of the Riordan array rd times the integer prefix xs
    (terms past its end read as zero): ``d · X(h) mod z**depth`` by Horner's
    rule, with h of order lag and ``g = h / z**lag``."""
    (dn, dd), (hn, hd) = rd
    lag = next(k for k, c in enumerate(hn) if c)
    g, gap = hn[lag:], [0] * (lag - 1)
    # s_j = x_j + h s_{j+1} mod z**(depth - lag j), so s_{j+1} mod z**m (its
    # length from the second step on); x_j h**j reaches no row if lag j >= depth
    s = [0] * depth
    for j in range(min(len(xs), -(-depth // lag)) - 1, -1, -1):
        m = max(depth - (j + 1) * lag, 0)
        s = [xs[j], *gap, *_over(_times(s, g, m), hd)]
    return _over(_times(s, dn, depth), dd)


def _times(xs: list, poly: tuple, m: int) -> list:
    """xs · poly mod z**m, for len(xs) >= m."""
    c, *rest = poly
    out = xs[:m] if c == 1 else [c * x for x in xs[:m]]
    for k, c in enumerate(rest, 1):
        if c:
            out[k:] = [o + c * x for o, x in zip(out[k:], xs)]
    return out


def _over(xs: list, den: tuple) -> list:
    """xs / den, to the length of xs; den[0] is +1 or -1, its own inverse."""
    if den == _ONE:
        return xs
    if den == _LESS_Z:
        return list(accumulate(xs))
    lead, tail = den[0], den[1:]
    out: list = []
    for i, x in enumerate(xs):
        for k, c in enumerate(tail[:i], 1):
            x -= c * out[i - k]
        out.append(lead * x)
    return out


def _mul(x: tuple, y: tuple) -> tuple:
    if x == _ONE or y == _ONE:
        return y if x == _ONE else x
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b
    return tuple(out)


def _add(x: tuple, y: tuple) -> tuple:
    if not x:
        return y
    if len(x) < len(y):
        x, y = y, x
    return tuple([a + b for a, b in zip(x, y + (0,) * (len(x) - len(y)))])


def _reduce(num: tuple, den: tuple) -> tuple:
    """num / den in lowest terms, without trailing zeros and with den[0] = 1.

    Both are divided by their primitive gcd g.  g divides den over the
    integers (Gauss's lemma) and den[0] = ±1, so g[0] = ±1 and the division
    is an exact power-series division, cut to the quotient's length; the
    signs are fixed last."""
    num, den = _strip(num), _strip(den)
    if num == den:
        return _ONE, _ONE
    # a monomial c z**k is prime to den, whose constant term is ±1
    g = _gcd(num, den) if len(den) > 1 and len(num) - num.count(0) > 1 else _ONE
    if len(g) > 1:
        num = tuple(_over(list(num[: len(num) - len(g) + 1]), g))
        den = tuple(_over(list(den[: len(den) - len(g) + 1]), g))
    if den[0] == -1:
        num, den = tuple(-c for c in num), tuple(-c for c in den)
    return num, den


def _gcd(a: tuple, b: tuple) -> tuple:
    """A gcd of two integer polynomials of degree at least 1, without
    trailing zeros, by the primitive pseudo-remainder sequence; ``(1,)``
    once a remainder is a nonzero constant."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _primitive(_prem(a, b))
    return _ONE if b else _primitive(a)


def _prem(a: tuple, b: tuple) -> list:
    """The pseudo-remainder of a by b, len(a) >= len(b): b[-1]**k a minus a
    multiple of b, of lower degree than b, without trailing zeros."""
    top, m = b[-1], len(b) - 1
    while len(a) > m:
        c, shift = a[-1], len(a) - 1 - m
        a = [top * x for x in a[:-1]]
        for k in range(m):
            a[shift + k] -= c * b[k]
        while a and not a[-1]:
            a.pop()
    return a


def _primitive(a: list) -> tuple:
    g = gcd(*a)
    return tuple(a) if g == 1 else tuple([c // g for c in a])


def _strip(x: tuple) -> tuple:
    end = len(x)
    while end > 1 and not x[end - 1]:
        end -= 1
    return x[:end] or (0,)

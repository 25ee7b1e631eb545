"""Closed row rules of the row-sum kernel ``sequences._row_sums``.

``ROW_RULES`` maps the head of an operator's tag to a rule
``rule(xs, depth, *params)`` that returns rows 0..depth-1 of the operator
times the sequence whose prefix is xs (terms past its end read as zero),
over any field, with the values and types of the entry sums
``sum_k entry(i, k) * x_k``, or as a ``Nums``.  A Riordan array with no rule
here, or a product of them, takes the rows of its pair, ``riordan.rows``, on
integer prefixes.

``Nums`` is the one internal form of a prefix, from a term oracle or a
``FinSupp`` to a verdict; the helpers below step it through the package's
images without a ``Fraction`` per term.  A value of Q(√d) is stepped as its
integer halves, (a + b√d) / c: a geometric combination's prefix, and the
rows of a Riordan rule over Q(√d).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import mul, neg, sub
from typing import Callable, Optional

from .scalars import QuadExt, Scalar, _quad, exact_div

_RATIONAL = (int, Fraction)


class Nums:
    """Terms ``ns[k] / den``, every ns[k] an int and den a positive int; or,
    with ``den`` None, the terms themselves in ns (some term is not rational).
    ``terms``, when given, are those terms as a caller holds them, with their
    types.  It is not a list, so code that takes it for a prefix fails at once."""

    __slots__ = ("ns", "den", "_terms")

    def __init__(self, ns: list, den, terms: Optional[list] = None):
        self.ns, self.den, self._terms = ns, den, terms

    def __len__(self):
        return len(self.ns)

    def terms(self) -> list:
        """The terms, built once; ns itself when den is None or 1."""
        if self._terms is None:
            ns, den = self.ns, self.den
            self._terms = ns if den is None or den == 1 else [Fraction(n, den) for n in ns]
        return self._terms

    def map(self, rule: Callable) -> "Nums":
        """rule applied to the numerators (or terms) over the same denominator:
        a shift or a difference, the same code for both kinds of form."""
        return Nums(rule(self.ns), self.den)


def _over_common_denominator(xs) -> Nums:
    """xs itself if it is a ``Nums``; else the terms xs, kept as given, over
    their least common denominator when every term is an int or a Fraction,
    or ``Nums(list(xs), None)``."""
    if isinstance(xs, Nums):
        return xs
    if all(map(isinstance, xs, repeat(int))):
        return Nums(list(xs), 1)
    if not all(map(isinstance, xs, repeat(_RATIONAL))):
        return Nums(list(xs), None)
    dens = [x.denominator for x in xs]
    den = lcm(*dens)
    return Nums([x.numerator * (den // d) for x, d in zip(xs, dens)], den, xs)


def rows_over(sums: list, den) -> Nums:
    """The form of rows ``sums[i] / den`` from a rule: over their own
    denominator times den when the sums are a ``Nums`` or are rational off
    the integers (entry sums with Fraction entries); divided, as
    ``_row_sums`` returns them, when some row lies in Q(√d)."""
    if isinstance(sums, Nums):
        return Nums(sums.ns, sums.den * den)
    if den is None or all(map(isinstance, sums, repeat(int))):
        return Nums(sums, den)
    held = _over_common_denominator(sums)
    if held.den is not None:
        return held if den == 1 else Nums(held.ns, held.den * den)
    if den != 1:
        inv = Fraction(1, den)
        sums = [t * inv if isinstance(t, QuadExt) else Fraction(t, den) for t in sums]
    return Nums(sums, None)


def _halves(x: Scalar) -> tuple:
    """(a, b, c) in integers, c > 0 and gcd(a, b, c) = 1, with x == (a + b√d) / c,
    d the field of x when x is a ``QuadExt``: the integer halves of x."""
    if isinstance(x, QuadExt):
        a, b = x.a, x.b
        c = lcm(a.denominator, b.denominator)
        return a.numerator * (c // a.denominator), b.numerator * (c // b.denominator), c
    return x.numerator, 0, x.denominator


def _field_label(values) -> Optional[int]:
    """The one field label d of the ``QuadExt`` values among values; None when
    there are none or several."""
    labels = {x.d for x in values if isinstance(x, QuadExt)}
    return labels.pop() if len(labels) == 1 else None


def _joined(hs: list) -> tuple:
    """Integer halves (a, b, c) over D, the lcm of the c: ([a·D/c], [b·D/c], D)."""
    D = lcm(*[c for _, _, c in hs])
    ns_a, ns_b = [], []
    for a, b, c in hs:
        k = D // c
        ns_a.append(a * k)
        ns_b.append(b * k)
    return ns_a, ns_b, D


def field_rows(rule: Callable, xs: list, depth: int, span: Callable) -> Optional[list]:
    """Rows 0..depth-1 of an operator with int entries, band ``span`` and
    integer-prefix rule ``rule(ns, depth)``, times the terms xs, when every
    ``QuadExt`` among them carries one field label d and some term is a
    ``QuadExt`` (else None, and the caller keeps its entry sums): the rule runs
    on the integer halves of xs over one denominator D, and row i is built as
    its entry sums would leave it, a ``QuadExt`` if a ``QuadExt`` term lies in
    span(i, len(xs)), else a ``Fraction`` if a ``Fraction`` does, else an int."""
    d = _field_label(xs)
    if d is None:
        return None
    ns_a, ns_b, D = _joined([_halves(x) for x in xs])
    rows_a, rows_b = rule(ns_a, depth), rule(ns_b, depth)
    # how many QuadExt and Fraction terms lie below each index
    quads = list(accumulate((isinstance(x, QuadExt) for x in xs), initial=0))
    fracs = list(accumulate((isinstance(x, Fraction) for x in xs), initial=0))
    rows, n = [], len(xs)
    for i, (a, b) in enumerate(zip(rows_a, rows_b)):
        cols = span(i, n)
        hi = cols.stop
        lo = min(cols.start, hi)
        if quads[hi] > quads[lo]:
            rows.append(_quad(Fraction(a, D), Fraction(b, D), d))
        else:
            rows.append(Fraction(a, D) if fracs[hi] > fracs[lo] else a // D)
    return rows


def _geometric_sums(pairs: tuple, depth: int) -> Optional[tuple]:
    """(s, b, q) with sum_j c_j r_j**n == s[n] / (b q**n) for n < depth, b and
    q the least common denominators of the c_j and of the r_j, when every
    c_j and r_j is an int or a Fraction (else None): each pair steps a·p**n
    in integers."""
    if not all(isinstance(v, _RATIONAL) for pair in pairs for v in pair):
        return None
    b = lcm(*[c.denominator for c, _ in pairs])
    q = lcm(*[r.denominator for _, r in pairs])
    out = [0] * depth
    for c, r in pairs:
        w, p = c.numerator * (b // c.denominator), r.numerator * (q // r.denominator)
        for n in range(depth):
            out[n] += w
            w *= p
    return out, b, q


def _field_steps(c: Scalar, r: Scalar, d: int, depth: int) -> list:
    """[(a_n, b_n, C_n)] with c·r**n == (a_n + b_n√d) / C_n for n < depth, c and
    r in Q(√d): r = (p + q√d) / R steps (a, b, C) to (a·p + d·b·q, a·q + b·p, C·R),
    divided by gcd(a, b, C), taken with the small C first."""
    a, b, C = _halves(c)
    p, q, R = _halves(r)
    dq = d * q
    out = [(a, b, C)] * depth
    for n in range(1, depth):
        a, b, C = a * p + dq * b, a * q + b * p, C * R
        g = gcd(C, a)
        if g > 1:
            g = gcd(g, b)
            if g > 1:
                a, b, C = a // g, b // g, C // g
        out[n] = (a, b, C)
    return out


def geometric_term(pairs: tuple, n: int) -> Scalar:
    """Term n of sum_j c_j r_j**n, one power per pair: ``ExpComb.term``."""
    total = 0
    for c, r in pairs:
        total += c * r**n
    return total


def geometric_terms(pairs: tuple, depth: int) -> list:
    """Terms 0..depth-1 of sum_j c_j r_j**n with the values, types and reprs of
    ``ExpComb.term``: rational pairs divide their integer sums once per term,
    and other pairs take ``_field_terms``."""
    got = _geometric_sums(pairs, depth)
    if got is None:
        return _field_terms(pairs, depth)
    s, b, q = got
    if all(isinstance(v, int) for pair in pairs for v in pair):
        return s
    return list(map(Fraction, s, accumulate(repeat(q, depth - 1), mul, initial=b)))


def _field_terms(pairs: tuple, depth: int) -> list:
    """The terms of pairs whose ``QuadExt`` values carry one field label d,
    each summed from the pairs' integer halves over the least common multiple
    of their denominators and built once as a ``QuadExt`` of Q(√d); pairs with
    values of more than one label take ``geometric_term`` per term."""
    d = _field_label([v for pair in pairs for v in pair])
    if d is None:
        return [geometric_term(pairs, n) for n in range(depth)]
    terms = []
    for row in zip(*[_field_steps(c, r, d, depth) for c, r in pairs]):
        ns_a, ns_b, D = _joined(row)
        terms.append(_quad(Fraction(sum(ns_a), D), Fraction(sum(ns_b), D), d))
    return terms


def geometric_nums(pairs: tuple, depth: int) -> Nums:
    """The ``Nums`` of the same terms: over B·Q**(depth-1), the sums scaled
    by Q**(depth-1-n) once, when the pairs are rational; else the terms."""
    got = _geometric_sums(pairs, depth)
    if got is None:
        return Nums(_field_terms(pairs, depth), None)
    s, b, q = got
    powers = list(accumulate(repeat(q, depth - 1), mul, initial=1))
    return Nums(list(map(mul, s, reversed(powers))), b * powers[-1])


def scaled(c: Scalar, f: Nums) -> Nums:
    """c times the prefix f: one integer step on rational data."""
    if f.den is not None and isinstance(c, _RATIONAL):
        return Nums([c.numerator * n for n in f.ns], f.den * c.denominator)
    return Nums([c * t for t in f.terms()], None)


def added(f: Nums, g: Nums) -> Nums:
    """The termwise sum of two prefixes, to the shorter length."""
    if f.den is None or g.den is None:
        return Nums([a + b for a, b in zip(f.terms(), g.terms())], None)
    den = lcm(f.den, g.den)
    a, b = den // f.den, den // g.den
    return Nums([a * x + b * y for x, y in zip(f.ns, g.ns)], den)


def differences(row: list) -> list:
    return list(map(sub, row[1:], row))


def _fit(xs: list, n: int) -> list:
    """xs cut or padded with zeros to length n."""
    return xs[:n] + [0] * (n - len(xs))


def _pd_rows(xs: list, depth: int) -> list:
    # row n is sum_k C(n, k) (-1)**k x_k = (-1)**n Δ^n x_0, the head of row n
    # of the table of negated differences x_k - x_{k+1}
    row = _fit(xs, depth)
    if depth >= 16 and all(map(isinstance, row, repeat(int))):
        # bytes a slot of the packed table takes (see _packed_pd_rows); below
        # 16 rows or past 40 bytes, three passes over the packed row cost more
        # than the entry-by-entry subtractions they save
        w = (max(map(abs, row)).bit_length() + depth) // 8 + 1
        if w <= 40:
            return _packed_pd_rows(row, w)
    heads = []
    while row:
        heads.append(row[0])
        row = list(map(sub, row, row[1:]))
    return heads


def _packed_pd_rows(row: list, w: int) -> list:
    """The heads of the same table for an int row, each row of the table packed
    into one int: slot k, s = 8w bits wide, holds entry k plus c = 2**(s-1).
    An entry of table row n is below 2**(m+n) in absolute value for
    |x_k| < 2**m, so with s >= m + len(row) every entry plus c lies in [0, 2c)
    and the next row is one shift and two additions:
    p + c·(1 + 2**s + ...) - (p >> s).  What grows from the top slot of each
    row sits above the exact slots and only carries upward; it is cut off
    every 8 rows."""
    depth = len(row)
    s = 8 * w
    c, mask = 1 << (s - 1), (1 << s) - 1
    p = int.from_bytes(b"".join([(x + c).to_bytes(w, "little") for x in row]), "little")
    cs = int.from_bytes(c.to_bytes(w, "little") * depth, "little")
    heads = []
    for n in range(depth):
        if n % 8 == 0:  # keep the exact slots 0..depth-1-n
            low = (1 << s * (depth - n)) - 1
            p, cs = p & low, cs & low
        heads.append((p & mask) - c)
        p += cs - (p >> s)
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


def _jinv_rows(xs: list, depth: int, a: Scalar):
    # back-substitution in J(a) y = x: y_i = (x_i - y_{i+1}) / a, zero from len(xs) on
    n = len(xs)
    ys = [0] * (max(depth, n) + 1)
    if depth <= n and isinstance(a, _RATIONAL) and all(map(isinstance, xs, repeat(int))):
        # a = p/q: y_i = z_i / t, t = |p|**n, z_i = q (x_i t - z_{i+1}) / p
        p, q = a.numerator, a.denominator
        t = abs(p) ** n
        for i in range(n - 1, -1, -1):
            ys[i] = q * (xs[i] * t - ys[i + 1]) // p
        return Nums(ys[:depth], t)
    for i in range(n - 1, -1, -1):
        ys[i] = exact_div(xs[i] - ys[i + 1], a)
    return ys[:depth]


ROW_RULES = {
    "PD": _pd_rows,
    "PTD": _ptd_rows,
    "Jinv": _jinv_rows,
}

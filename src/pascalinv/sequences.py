"""Exactly representable infinite sequences and the binomial-inversion calculus.

Sequence classes
----------------
``FinSupp``      finitely supported, stored as a ``Nums`` or a term tuple.
``ExpComb``      finite combination sum_j c_j * r_j**n of geometric sequences,
                 with coefficients and ratios rational or quadratic-irrational.
``Bernoulli``    the Bernoulli numbers (B1 = -1/2 convention).
``AltBernoulli`` (-1)**n * B_n.
``KSeq``         K_0 = 0, K_n = sum_{k<n} (1/2)**(n-k) * (-1)**k * B_k.
``Lazy``         an arbitrary exact term oracle or prefix rule.

Applying a lower or banded operator to a sequence is a finite exact sum per
term.  Applying an unbounded upper operator needs a summation rule: finitely
supported input gives finite sums, and geometric input is evaluated through
the closed form sum_{k>=n} C(k, n) x**k = x**n / (1 - x)**(n+1), read as an
analytic continuation in ``continued`` mode and restricted to |ratio| inside
the disc of convergence in ``classical`` mode.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd
from operator import neg
from typing import Callable, Optional

from .errors import (
    DivergentSumError,
    InfiniteSumError,
    PoleError,
    Record,
    UnsupportedSequenceError,
)
from .operators import TriOp, make_operator, pd, ptd
from .rowrules import (ROW_RULES, Nums, _fit, _over_common_denominator, added, differences,
                       field_rows, geometric_nums, geometric_term, geometric_terms, rows_over,
                       scaled)
from .scalars import QuadExt, Scalar, exact_div, scalar_cmp

CLASSICAL = "classical"
CONTINUED = "continued"

FIRST = "first"
SECOND = "second"

INVARIANT = "invariant"
INVERSE_INVARIANT = "inverse-invariant"
NEITHER = "neither"

# the verdict a member of the sign's eigenspace gets
VERDICT_OF_SIGN = {1: INVARIANT, -1: INVERSE_INVARIANT}

TAU1 = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
TAU2 = QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)
INV_SQRT5 = QuadExt(0, Fraction(1, 5), 5)
_HALF = Fraction(1, 2)

_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2.  A miss refills the cache up to index
    max(n, 2·len(cache)) from the tangent numbers T_k (Brent and Harvey,
    arXiv:1108.0286), as B_2k = (-1)**(k-1) 2k T_k / (4**k (4**k - 1))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _BERNOULLI_LOCK:
        if len(_BERNOULLI) <= n:
            top = max(n, 2 * len(_BERNOULLI))
            tangents = _tangent_numbers(top // 2)
            for m in range(len(_BERNOULLI), top + 1):
                if m == 1:
                    b = Fraction(-1, 2)
                elif m % 2:
                    b = Fraction(0)
                else:
                    k = m // 2
                    b = Fraction((-1) ** (k - 1) * m * tangents[k], 4 ** k * (4 ** k - 1))
                _BERNOULLI.append(b)
        return _BERNOULLI[n]


def _tangent_numbers(n: int) -> list:
    """[0, T_1, ..., T_n]: O(n**2) integer steps in place (Brent and Harvey,
    Algorithm TangentNumbers)."""
    t = [0] * (n + 1)
    if n:
        t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


_K: list[Fraction] = [Fraction(0)]
_K_LOCK = threading.Lock()


def k_number(n: int) -> Fraction:
    """K_n from K_0 = 0 and K_{n+1} = (K_n + (-1)**n * B_n) / 2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _K_LOCK:
        while len(_K) <= n:
            m = len(_K) - 1
            _K.append((_K[m] + (-1) ** m * bernoulli_number(m)) / 2)
        return _K[n]


class Seq:
    """Base class: an immutable infinite sequence with an exact term oracle."""

    def term(self, n: int) -> Scalar:
        raise NotImplementedError

    def prefix(self, depth: int) -> list:
        """Terms 0..depth-1; subclasses with a faster path override ``_prefix``."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        return self._prefix(depth)

    def _prefix(self, depth: int) -> list:
        return [self.term(n) for n in range(depth)]

    def _nums(self, depth: int) -> Nums:
        # terms 0..depth-1 (or more) as a rowrules.Nums
        return _over_common_denominator(self.prefix(depth))


class FinSupp(Seq, Record):
    """Terms ``terms``, zero from ``support_bound`` on.  The package computes
    on ``_held``, their ``Nums``; its images get only that form."""

    _fields = ("terms",)

    def __init__(self, terms=()):
        held = isinstance(terms, Nums)
        ts = terms.ns if held else tuple(terms)
        n = len(ts)
        while n and ts[n - 1] == 0:
            n -= 1
        if held and terms.den:  # a Nums with no denominator is the terms themselves
            ns, den = ts[:n], terms.den
            g = gcd(den, *ns)
            vars(self)["_held"] = Nums([x // g for x in ns], den // g) if g > 1 else Nums(ns, den)
        else:
            vars(self)["terms"] = tuple(ts[:n])
        vars(self)["support_bound"] = n

    terms = cached_property(lambda self: tuple(self._held.terms()))
    _held = cached_property(lambda self: _over_common_denominator(self.terms))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        f, g = self._held, other._held
        return (f.ns, f.den) == (g.ns, g.den) if f.den and g.den else self.terms == other.terms

    __hash__ = Record.__hash__

    def term(self, n):
        if n < 0:
            raise ValueError("n must be >= 0")
        return self.terms[n] if n < len(self.terms) else 0

    def _prefix(self, depth):
        return _fit(list(self.terms), depth)

    def _nums(self, depth):  # a cut prefix takes its own denominator
        if self.support_bound > depth:
            return super()._nums(depth)
        return self._held.map(lambda ns: _fit(ns, depth))


def unit(j: int) -> FinSupp:
    """The standard basis sequence e_j."""
    return FinSupp((0,) * j + (1,))


class ExpComb(Seq, Record):
    """sum_j c_j * r_j**n with pairwise distinct ratios (0**0 = 1)."""

    _fields = ("pairs",)

    def __init__(self, pairs=()):
        merged: dict = {}
        for c, r in pairs:
            merged[r] = merged.get(r, 0) + c
        cleaned = [(c, r) for r, c in merged.items() if c != 0]
        cleaned.sort(key=cmp_to_key(lambda p, q: scalar_cmp(p[1], q[1])))
        vars(self).update(pairs=tuple(cleaned))

    def term(self, n):
        if n < 0:
            raise ValueError("n must be >= 0")
        return geometric_term(self.pairs, n)

    def _prefix(self, depth):
        return geometric_terms(self.pairs, depth)

    def _nums(self, depth):
        return geometric_nums(self.pairs, depth)


def geometric(c: Scalar, r: Scalar) -> ExpComb:
    return ExpComb(((c, r),))


def fibonacci() -> ExpComb:
    """F_n = (tau1**n - tau2**n) / sqrt(5) over Q(sqrt 5)."""
    return ExpComb(((INV_SQRT5, TAU1), (-INV_SQRT5, TAU2)))


def lucas() -> ExpComb:
    """L_n = tau1**n + tau2**n."""
    return ExpComb(((Fraction(1), TAU1), (Fraction(1), TAU2)))


def _cached(cache: list, fill: Callable, depth: int) -> list:
    # one fill (one lock), then one slice of the append-only cache
    if depth:
        fill(depth - 1)
    return cache[:depth]


class Bernoulli(Seq, Record):
    def term(self, n):
        return bernoulli_number(n)

    def _prefix(self, depth):
        return _cached(_BERNOULLI, bernoulli_number, depth)


class AltBernoulli(Seq, Record):
    def term(self, n):
        return (-1) ** n * bernoulli_number(n)

    def _prefix(self, depth):
        # (-1)**n B_n = B_n but at n = 1, as B_n = 0 at every other odd n
        ts = _cached(_BERNOULLI, bernoulli_number, depth)
        ts[1:2] = [_HALF] * (depth > 1)
        return ts


class KSeq(Seq, Record):
    def term(self, n):
        return k_number(n)

    def _prefix(self, depth):
        return _cached(_K, k_number, depth)


class Lazy(Seq, Record):
    """An exact sequence given by a term oracle or by a prefix rule.

    Give exactly one of ``oracle(n)``, one term, or ``rows(depth)``, terms
    0..depth-1 at once; the package's images give ``rows`` returning a
    ``rowrules.Nums`` that reads each input term once.  Compares by identity
    and keeps the longest prefix computed so far as a ``Nums``, its only
    cache, which keeps the terms an oracle or a listed ``rows`` gave:
    ``term(n)`` past it calls the oracle again, while a prefix computes each
    term once.
    """

    _fields = ("label",)  # shown by repr; equality is identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, oracle: Optional[Callable[[int], Scalar]] = None, label: str = "lazy",
                 rows: Optional[Callable[[int], list]] = None):
        if (oracle is None) == (rows is None):
            raise ValueError("Lazy needs exactly one of oracle and rows")
        vars(self).update(oracle=oracle, label=label, rows=rows, _head=Nums([], 1))

    def term(self, n):
        if n < 0:
            raise ValueError("n must be >= 0")
        head = self._head
        if n >= len(head.ns):  # not len(head): a Python __len__ call per term read
            if self.rows is None:
                return self.oracle(n)
            # grow geometrically so that reading terms in order stays linear
            head = self._extend(max(n + 1, 2 * len(head)))
        return head.terms()[n]

    def _prefix(self, depth):
        return self._nums(depth).terms()[:depth]

    def _nums(self, depth):
        head = self._head
        return head if depth <= len(head) else self._extend(depth)

    def _extend(self, depth):
        head = self._head
        if self.rows is None:
            head = head.terms() + [self.term(n) for n in range(len(head), depth)]
        else:
            head = self.rows(depth)
        head = _over_common_denominator(head)
        object.__setattr__(self, "_head", head)
        return head


def _describe(seq: Seq) -> str:
    label = getattr(seq, "label", None)
    name = type(seq).__name__
    return f"{name}({label})" if label else name


def term(seq: Seq, n: int) -> Scalar:
    return seq.term(n)


def prefix(seq: Seq, depth: int) -> list:
    """Terms 0..depth-1 of seq; a negative depth raises ``ValueError``."""
    return seq.prefix(depth)


def _mapped(seq: Seq, label: str, rows: Callable, ahead: int,
            grow: Optional[Callable[[int], int]], pair: Optional[Callable] = None) -> Seq:
    """The image of seq under a linear map given by its rule on the form:
    ``rows(f, d)`` is rows 0..d-1 (or more) of the image of the sequence
    whose ``Nums`` f holds its terms 0..d+ahead-1 (or more).  A ``FinSupp``
    of support b maps to the ``FinSupp`` of ``rows`` to ``grow(b)``, which
    bounds the image's support, when the map has ``grow``; an ``ExpComb``
    maps pair by pair through ``pair(c, r)``, when the map has it; any other
    input gives a lazy image."""
    if grow is not None and isinstance(seq, FinSupp):
        return FinSupp(rows(seq._held, grow(seq.support_bound)))
    if pair is not None and isinstance(seq, ExpComb):
        return ExpComb([pair(c, r) for c, r in seq.pairs])
    return Lazy(label=label, rows=lambda d: rows(seq._nums(max(d + ahead, 0)), d))


def seq_scale(c: Scalar, seq: Seq) -> Seq:
    if c == 0:
        return FinSupp(())
    return _mapped(seq, "scaled", lambda f, d: scaled(c, f), 0, lambda b: b,
                   lambda cc, r: (c * cc, r))


def seq_add(x: Seq, y: Seq) -> Seq:
    if isinstance(x, FinSupp) and isinstance(y, FinSupp):
        n = max(x.support_bound, y.support_bound)
        return FinSupp(added(x._nums(n), y._nums(n)))
    if isinstance(x, ExpComb) and isinstance(y, ExpComb):
        return ExpComb(x.pairs + y.pairs)
    return Lazy(label="sum", rows=lambda d: added(x._nums(d), y._nums(d)))


def shift_down(seq: Seq) -> Seq:
    """Drop the head: term'(n) = term(n + 1)."""
    return _mapped(seq, "shifted-down", lambda f, d: f.map(lambda ns: ns[1:]), 1, lambda b: b,
                   lambda c, r: (c * r, r))


def shift_up(seq: Seq) -> Seq:
    """Prepend a zero: term'(0) = 0, term'(n) = term(n - 1)."""
    if isinstance(seq, ExpComb) and all(r != 0 for _, r in seq.pairs):
        # (c/r, r) is exact for n >= 1; it extends to n = 0 only when the
        # candidate value at 0 vanishes, otherwise fall back to a prefix rule
        cand = ExpComb([(exact_div(c, r), r) for c, r in seq.pairs])
        if cand.term(0) == 0:
            return cand
    return _mapped(seq, "shifted-up", lambda f, d: f.map(lambda ns: [0, *ns]), -1,
                   lambda b: b + 1)


def difference(seq: Seq, k: int = 1) -> Seq:
    """k-th forward difference, term'(n) = term(n+1) - term(n) applied k times."""
    if k < 0:
        raise ValueError("k must be >= 0")
    for _ in range(k):
        # terms past a FinSupp's support read as zero; a longer prefix is cut
        seq = _mapped(seq, "difference",
                      lambda f, d: f.map(lambda ns: differences(_fit(ns, d + 1))), 1,
                      lambda b: b, lambda c, r: (c * (r - 1), r))
    return seq


def newton_reconstruct(seq: Seq, depth: int) -> list:
    """Rebuild the prefix via sum_k Δ^k a_0 * C(n, k), the heads Δ^k a_0 read as D·PD·a."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    heads = _row_sums(make_operator("D"), _row_sums(pd(), prefix(seq, depth), depth), depth)
    return _row_sums(make_operator("P"), heads, depth)


def apply_finite(op: TriOp, seq: Seq, depth: int) -> list:
    """Exact prefix (y_0, ..., y_{depth-1}) of op applied to seq.

    Requires a finite lookahead: op.band.above must be finite, so every entry
    of the result is a finite sum.  Each input term is evaluated once.
    """
    if op.band.above is None:
        raise InfiniteSumError(
            f"{op.label} has unbounded upper band; use apply_upper"
        )
    return _image(op, seq).prefix(depth)


def _row_sums(op: TriOp, xs: list, depth: int) -> list:
    """Rows 0..depth-1 of op times the sequence whose prefix is xs, terms
    past its end read as zero.  Rational input is summed in integers by
    :func:`_row_numerators`, with one division per row here; a ``Nums`` xs
    gives ``Nums`` rows, undivided."""
    _, sums, den = _row_numerators(op, xs, depth)
    rows = rows_over(sums, den)
    return rows if isinstance(xs, Nums) else rows.terms()


def _row_numerators(op: TriOp, xs: list, depth: int) -> tuple:
    """(ns, sums, den): xs[k] == ns[k] / den and row i of op times xs is
    sums[i] / den (see ``rowrules.rows_over``), ints when xs (maybe a
    ``Nums``) is rational; else (terms, rows, None).  The rows come from
    the operator's rule in ``rowrules.ROW_RULES``; else from its Riordan
    pair's in ``riordan.ROWS``, over Q(√d) on the integer halves of the terms
    (``rowrules.field_rows``) when their ``QuadExt`` values carry one field
    label; else from the entry sums over the band."""
    held = _over_common_denominator(xs)
    ns, den = held.ns, held.den
    head = op.tag[0] if op.tag else None
    rule = ROW_RULES.get(head)
    if rule is not None:
        return ns, rule(ns, depth, *op.tag[1:]), den
    if head:
        from . import riordan

        rule = riordan.ROWS.get(head)
    if rule is not None:
        sums = rule(ns, depth) if den is not None else field_rows(rule, ns, depth, op.band.span)
        if sums is not None:
            return ns, sums, den
    span, entry, n = op.band.span, op.entry, len(ns)
    return ns, [sum(entry(i, k) * ns[k] for k in span(i, n)) for i in range(depth)], den


def _abs_lt(x: Scalar, y: Scalar) -> bool:
    # |x| < |y| over the real embedding, compared via squares
    return x * x < y * y


def apply_upper(op: TriOp, seq: Seq, mode: str = CONTINUED) -> Seq:
    """Apply an upper (possibly unbounded) operator to a sequence, exactly.

    Banded operators evaluate pointwise on any sequence.  Unbounded upper
    operators accept finitely supported input (finite sums) and geometric
    combinations, the latter through the per-ratio closed rules of
    ``_PAIR_RULES``, known for the signed transposed Pascal operator and for
    inverse Jordan blocks.
    """
    require_mode(mode)
    below = op.band.below
    if op.band.above is not None or (below is not None and isinstance(seq, FinSupp)):
        return _image(op, seq, None if below is None else lambda b: b + below)
    if isinstance(seq, FinSupp):
        raise InfiniteSumError(f"{op.label} has no finite summation range")
    if not isinstance(seq, ExpComb):
        raise UnsupportedSequenceError(
            f"{op.label} is unbounded upper; {_describe(seq)} input must be "
            "finitely supported or a geometric combination"
        )
    rule = _PAIR_RULES.get(op.tag[0] if op.tag else None)
    if rule is None:
        raise UnsupportedSequenceError(f"no geometric closed rule for {op.label}")
    return ExpComb([rule(c, r, mode, *op.tag[1:]) for c, r in seq.pairs])


def require_mode(mode: str) -> None:
    """Raise ``ValueError`` unless mode is ``classical`` or ``continued``."""
    if mode not in (CLASSICAL, CONTINUED):
        raise ValueError(f"unknown mode: {mode!r}")


def _ptd_pair(c: Scalar, r: Scalar, mode: str) -> tuple:
    # sum_{k>=n} C(k,n) (-r)**k = (-r)**n / (1+r)**(n+1)
    if mode == CLASSICAL and not _abs_lt(r, 1):
        raise DivergentSumError(
            f"classical sum diverges for ratio {r}: need |ratio| < 1"
        )
    denom = 1 + r
    if denom == 0:
        raise PoleError("continuation rule has a pole at ratio -1")
    return (exact_div(c, denom), exact_div(-r, denom))


def _jinv_pair(c: Scalar, r: Scalar, mode: str, a: Scalar) -> tuple:
    if mode == CLASSICAL and not _abs_lt(r, a):
        raise DivergentSumError(
            f"classical sum diverges for ratio {r}: need |ratio| < |{a}|"
        )
    denom = a + r
    if denom == 0:
        raise PoleError(f"continuation rule has a pole at ratio {-a}")
    return (exact_div(c, denom), r)


# the closed rule for one geometric pair (c, r), by operator tag head
_PAIR_RULES = {"PTD": _ptd_pair, "Jinv": _jinv_pair}


def _image(op: TriOp, seq: Seq, grow: Optional[Callable[[int], int]] = None) -> Seq:
    """Image of seq under an operator with finite lookahead, or of a
    ``FinSupp`` with ``grow`` under one with a finite lower band: a prefix
    reads the input prefix once and runs the kernel (see :func:`_mapped`)."""
    return _mapped(seq, f"{op.label}·seq", lambda f, d: _row_sums(op, f, d), op.band.above, grow)


class InvarianceReport(Record):
    """Outcome of an invariance check at finite depth."""

    _fields = ("kind", "verdict", "depth", "mode", "first_failure")

    def __init__(self, kind: str, verdict: str, depth: int, mode: str,
                 first_failure: Optional[int] = None):
        vars(self).update(kind=kind, verdict=verdict, depth=depth, mode=mode,
                          first_failure=first_failure)


_SECOND_KIND_MODE = {CONTINUED: "closed-form", CLASSICAL: "classical-partial-sum"}


def check_invariance(
    seq: Seq, kind: str, depth: int, mode: str = CONTINUED
) -> InvarianceReport:
    """Compare the transformed prefix against +seq and -seq up to depth.

    First-kind checks apply the signed Pascal involution row by row (exact for
    every sequence class); second-kind checks apply its transpose, which needs
    finitely supported or geometric input.  Rational terms (all of a
    ``FinSupp``'s, for the upper rows) are compared with the rows as integer
    numerators over one denominator, with no ``Fraction`` per row.  A verdict
    of neither reports as ``first_failure`` the first index by which both
    comparisons have failed.
    """
    if kind not in (FIRST, SECOND):
        raise ValueError(f"unknown kind: {kind!r}")
    require_mode(mode)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    report_mode = "exact-finite"
    if kind == FIRST:
        xs, image, _ = _row_numerators(pd(), seq._nums(depth), depth)
    elif isinstance(seq, FinSupp):
        ns, image, _ = _row_numerators(ptd(), seq._held, depth)
        xs = _fit(ns, depth)
    elif isinstance(seq, ExpComb):
        xs, image = prefix(seq, depth), apply_upper(ptd(), seq, mode).prefix(depth)
        report_mode = _SECOND_KIND_MODE[mode]
    else:
        raise UnsupportedSequenceError(
            "second-kind checks need finitely supported or geometric input"
        )
    plus = _first_mismatch(image, xs)
    minus = None if plus is None else _first_mismatch(image, map(neg, xs))
    verdict = INVARIANT if plus is None else INVERSE_INVARIANT if minus is None else NEITHER
    failure = None if minus is None else max(plus, minus)
    return InvarianceReport(kind, verdict, depth, report_mode, failure)


def in_eigenspace(
    seq: Seq, kind: str, sign: int, depth: int, mode: str = CONTINUED
) -> bool:
    """Whether :func:`check_invariance` gives seq the sign's verdict, or its
    depth-prefix and its image are all zero: the zero sequence lies in every
    eigenspace, and a member may start with more zero rows than the depth.
    A zero prefix whose second-kind image is not zero, as e_10 at depth 4,
    is no member."""
    verdict = check_invariance(seq, kind, depth, mode).verdict
    # invariant means image == prefix, so a zero prefix then has a zero image
    return verdict == VERDICT_OF_SIGN[sign] or (
        verdict == INVARIANT and not any(prefix(seq, depth))
    )


def _first_mismatch(ys: list, xs) -> Optional[int]:
    """The first index where ys and xs differ, or None."""
    return next((i for i, (y, x) in enumerate(zip(ys, xs)) if y != x), None)

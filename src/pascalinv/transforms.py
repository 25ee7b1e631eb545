"""Transforms that move sequences between the four invariance classes.

The four banded/triangular maps exchange invariant and inverse-invariant
sequences within each kind; the staggered Pascal-type matrices project any
sequence onto one of the eigenspaces.  Pipelines chain those stages and track
the (kind, sign) class of their output, so a caller can announce what the
result provably is.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import lshift
from typing import Callable, Optional

from .errors import Record, SupportCapError, UnsupportedPairError
from .operators import lin_comb, make_operator, op_power, transpose
from .rowrules import Nums
from .scalars import Scalar, exact_div
from .sequences import (
    CONTINUED,
    FIRST,
    SECOND,
    ExpComb,
    FinSupp,
    Lazy,
    Seq,
    _abs_lt,
    _image,
    _mapped,
    _row_sums,
    apply_upper,
    in_eigenspace,
    require_mode,
    seq_add,
    seq_scale,
    shift_down,
    shift_up,
)
from .eigenstructure import BASIS_MATRICES


def t42a(x: Seq) -> Seq:
    """y_n = x_n + 2*x_{n-1} (y_0 = x_0): invariant -> inverse invariant, second kind."""
    return seq_add(x, seq_scale(2, shift_up(x)))


_JINV2 = make_operator("Jinv", 2)


def t42b(x: Seq, mode: str = CONTINUED) -> Seq:
    """Inverse Jordan block at 2 after a down-shift: inverse invariant -> invariant, second kind.

    Classical mode is admissible per geometric ratio r when |r| < 2.
    """
    return apply_upper(_JINV2, shift_down(x), mode)


def t42c(x: Seq) -> Seq:
    """y_n = sum_{k<n} (1/2)**(n-k) * x_k (y_0 = 0): invariant -> inverse invariant, first kind."""
    half = Fraction(1, 2)
    if isinstance(x, ExpComb) and all(r != half for _, r in x.pairs):
        # telescoped geometric sums: each ratio keeps itself and sheds a 1/2 tail
        out = []
        spill = Fraction(0)
        for c, r in x.pairs:
            w = exact_div(c, 2 * r - 1)
            out.append((w, r))
            spill = spill + w
        out.append((-spill, half))
        return ExpComb(out)

    def rows(f, depth):
        # y_0 = 0, y_{n+1} = (y_n + x_n) / 2.  On numerators X_k over den, 2**n y_n
        # is the prefix sum S_n of 2**k X_k / den, so y_n = S_n 2**(m-n) / (den 2**m)
        m = max(depth - 1, 0)
        if f.den is None:
            out = [0] * depth
            for n, t in zip(range(m), f.ns):
                out[n + 1] = (out[n] + t) * half
            return Nums(out, None)
        sums = accumulate(map(lshift, f.ns, range(m)), initial=0)
        return Nums(list(map(lshift, sums, range(m, -1, -1))), f.den << m)

    return _mapped(x, "halved-prefix-sum", rows, -1, None)


def t42d(x: Seq) -> Seq:
    """y_n = -x_n + 2*x_{n+1}: inverse invariant -> invariant, first kind."""
    # the longer operand first, so a lazy x computes its prefix once
    return seq_add(seq_scale(2, shift_down(x)), seq_scale(-1, x))


class Stage(Record):
    """One pipeline step with its class bookkeeping.

    ``sets`` gives the output class regardless of input (projection stages);
    ``domain`` is the input class a flip stage expects, its output being the
    same kind with the opposite sign.  ``support(b)``, when given, is the
    support bound of the stage's image of a ``FinSupp`` of support bound b,
    itself a ``FinSupp``; a stage without it maps a ``FinSupp`` to a lazy
    image, which grows no further.  It is not in ``_fields``, so ``repr``,
    ``==`` and ``hash`` do not read it.
    """

    _fields = ("name", "run", "sets", "domain")

    def __init__(self, name: str, run: Callable[[Seq, str], Seq],
                 sets: Optional[tuple] = None, domain: Optional[tuple] = None,
                 support: Optional[Callable[[int], int]] = None):
        vars(self).update(name=name, run=run, sets=sets, domain=domain, support=support)

    def out_class(self, cls: Optional[tuple]) -> Optional[tuple]:
        if self.sets is not None:
            return self.sets
        if cls is not None and cls == self.domain:
            return (cls[0], -cls[1])
        return None


class Pipeline(Record):
    _fields = ("steps",)

    def __init__(self, steps: tuple):
        vars(self).update(steps=steps)

    def apply(self, seq: Seq, mode: str = CONTINUED) -> Seq:
        """Run the stages in order, after :meth:`check_support`."""
        require_mode(mode)
        self.check_support(seq)
        out = seq
        for stage in self.steps:
            out = stage.run(out, mode)
        return out

    def check_support(self, seq: Seq) -> None:
        """Raise ``SupportCapError`` if some stage would grow the support of a
        ``FinSupp`` input past ``SUPPORT_CAP`` or past twice the input's own
        support, whichever is larger; a pipeline that grows its input less
        than that runs, however long the input."""
        if not isinstance(seq, FinSupp):
            return
        cap = max(SUPPORT_CAP, 2 * seq.support_bound)
        for k, b in enumerate(self.predicted_supports(seq), 1):
            if b > cap:
                raise SupportCapError(
                    f"stage {k} of {len(self.steps)} would grow the support to {b} terms, "
                    f"past the cap of {cap}"
                )

    def predicted_supports(self, seq: Seq):
        """Yield the support bound of each stage's image of a ``FinSupp``
        input, from ``support_bound`` alone, while the images stay
        ``FinSupp``s (the stages with a ``support`` rule); nothing for any
        other input."""
        if not isinstance(seq, FinSupp):
            return
        b = seq.support_bound
        for stage in self.steps:
            if stage.support is None:
                return
            b = stage.support(b)
            yield b

    def output_class(self, input_class: Optional[tuple] = None) -> Optional[tuple]:
        cls = input_class
        for stage in self.steps:
            cls = stage.out_class(cls)
        return cls

    def describe(self) -> str:
        return " ; ".join(stage.name for stage in self.steps)


def _matrix_stage(name, sets, support=None) -> Stage:
    """Projection onto the eigenspace ``sets`` through its spanning matrix."""
    op = BASIS_MATRICES[sets]()
    return Stage(name, lambda seq, mode: _image(op, seq, support), sets=sets, support=support)


# a FinSupp of support b meets columns 0..b-1; the top one has degree 2b-2
# (leading coefficient 1) in PTdown and 2b-1 (leading coefficient 2) in QTdown00
_STAGE_PTDOWN = _matrix_stage("PTdown", (SECOND, 1), support=lambda b: max(2 * b - 1, 0))
_STAGE_QTDOWN00 = _matrix_stage("QTdown00", (SECOND, -1), support=lambda b: 2 * b)
_STAGE_QDOWN = _matrix_stage("Qdown", (FIRST, 1))
_STAGE_ZERO_TOP_PDOWN = _matrix_stage("[0;Pdown]", (FIRST, -1))

_STAGE_T42A = Stage("(J(1)+J(0))^T", lambda s, m: t42a(s), domain=(SECOND, 1),
                    support=lambda b: b + 1 if b else 0)  # x_n + 2 x_{n-1}
# J(2)^-1 keeps the support of the shifted x
_STAGE_T42B = Stage("J(2)^-1·J(0)", lambda s, m: t42b(s, m), domain=(SECOND, -1),
                    support=lambda b: max(b - 1, 0))
_STAGE_T42C = Stage("(-J(-2)^-1)^T·J(0)^T", lambda s, m: t42c(s), domain=(FIRST, 1))
_STAGE_T42D = Stage("J(0)+J(-1)", lambda s, m: t42d(s), domain=(FIRST, -1),
                    support=lambda b: b)  # 2 x_{n+1} - x_n

# The largest support a pipeline may reach from a FinSupp input of at most
# half as many terms.  phitilde(N) doubles the support L of a FinSupp every
# two stages, to about 2**(N/2), and each QTdown00 stage then costs O(L**2)
# additions of L-bit numbers: 0.88 s for N = 24 (support 4,098) and 65 s for
# N = 28 (16,386; README, "Growth").  A longer input may grow to twice its
# own support, which one doubling stage, or as many t42a stages as the input
# has terms, stays within: their cost is polynomial in the request, and only
# repeated doubling past the cap is refused.
SUPPORT_CAP = 2 ** 13

TRANSFORM_STAGES = {
    "t42a": _STAGE_T42A,
    "t42b": _STAGE_T42B,
    "t42c": _STAGE_T42C,
    "t42d": _STAGE_T42D,
}


def build_phi(n: int, variant: str = "plain") -> Pipeline:
    """Second-kind generator pipeline of length n.

    The plain variant alternates projection onto the +1 space with the
    sign-flipping banded map; the tilde variant starts from the -1 space.
    Odd/even length decides the class of the output.
    """
    return _build(n, variant, plain=(_STAGE_PTDOWN, _STAGE_T42A),
                  tilde=(_STAGE_QTDOWN00, _STAGE_T42B))


def build_psi(n: int, variant: str = "plain") -> Pipeline:
    """First-kind generator pipeline of length n, mirroring :func:`build_phi`."""
    return _build(n, variant, plain=(_STAGE_QDOWN, _STAGE_T42C),
                  tilde=(_STAGE_ZERO_TOP_PDOWN, _STAGE_T42D))


def _build(n, variant, **orders) -> Pipeline:
    """The variant's two stages, in run order, repeated to length n."""
    if n < 1:
        raise ValueError("pipeline length must be >= 1")
    if variant not in orders:
        raise ValueError(f"variant must be 'plain' or 'tilde', got {variant!r}")
    return Pipeline((orders[variant] * n)[:n])


_POWER_BASES = {
    "P+D": (lambda: lin_comb(1, make_operator("P"), 1, make_operator("D")), FIRST, 1),
    "P-D": (lambda: lin_comb(1, make_operator("P"), -1, make_operator("D")), FIRST, -1),
    "PT+D": (lambda: lin_comb(1, make_operator("PT"), 1, make_operator("D")), SECOND, 1),
    "PT-D": (lambda: lin_comb(1, make_operator("PT"), -1, make_operator("D")), SECOND, -1),
}


def power_column(base: str, n: int, j: int) -> Seq:
    """Column j of the n-th power of P+D, P-D, PT+D or PT-D.

    Transposed bases give finitely supported columns; the others give exact
    lazy oracles.
    """
    if base not in _POWER_BASES:
        raise ValueError(f"base must be one of {sorted(_POWER_BASES)}")
    if n < 1:
        raise ValueError("power must be >= 1")
    if j < 0:
        raise ValueError("column index must be >= 0")
    factory, kind, _ = _POWER_BASES[base]
    X = op_power(factory(), n)
    if kind == SECOND:
        return FinSupp([X.entry(i, j) for i in range(j + 1)])
    return Lazy(lambda i: X.entry(i, j), label=f"({base})^{n} col {j}")


def power_column_class(base: str) -> tuple:
    """The invariance class every column of (base)^n provably belongs to."""
    _, kind, sign = _POWER_BASES[base]
    return (kind, sign)


def orthogonality(x: Seq, y: Seq, depth: int = 32) -> Scalar:
    """Exact value of sum_n x_n * (-1)**n * y_n.

    Needs one finitely supported operand, or two geometric combinations whose
    pairwise ratio products stay inside the unit disc (classical closed form).
    """
    if isinstance(y, FinSupp):
        xs = x.prefix(y.support_bound)
        return sum(xs[n] * (-1) ** n * t for n, t in enumerate(y.terms))
    if isinstance(x, FinSupp):
        return orthogonality(y, x, depth)
    if isinstance(x, ExpComb) and isinstance(y, ExpComb):
        total = 0
        for cx, rx in x.pairs:
            for cy, ry in y.pairs:
                prod = rx * ry
                if not _abs_lt(prod, 1):
                    raise UnsupportedPairError(
                        f"ratio product {prod} is outside the unit disc"
                    )
                total = total + exact_div(cx * cy, 1 + prod)
        return total
    raise UnsupportedPairError(
        "need a finitely supported operand or two geometric combinations"
    )


# each first-kind eigenspace is orthogonal to the second-kind space of the
# opposite sign, so orthogonality to a base's columns predicts that class
_CONVERSE_CLASSES = {
    base: (SECOND if kind == FIRST else FIRST, -sign)
    for base, (_, kind, sign) in _POWER_BASES.items()
}


def converse_check(y: Seq, base: str, depth: int) -> bool:
    """Depth-bounded converse test: orthogonality to the columns of the base
    matrix forces the predicted invariance class of y.

    Checks columns 0..depth-1; when any of them fails the orthogonality
    hypothesis the implication holds vacuously.  A ``True`` answer is
    depth-bounded evidence, not a proof.
    """
    if base not in _CONVERSE_CLASSES:
        raise ValueError(f"base must be one of {sorted(_CONVERSE_CLASSES)}")
    if not isinstance(y, FinSupp) or y.support_bound == 0:
        raise ValueError("y must be finitely supported and nonzero")
    factory, _, _ = _POWER_BASES[base]
    signed = y._held.map(lambda ns: [(-1) ** n * t for n, t in enumerate(ns)])
    # entry i is the dot of column i of the base with the signed terms of y
    if any(_row_sums(transpose(factory()), signed, depth).ns):
        return True  # hypothesis fails: vacuously true
    kind, sign = _CONVERSE_CLASSES[base]
    # a check shorter than the support of y would not see all of it
    return in_eigenspace(y, kind, sign, max(depth, y.support_bound))

"""Exact scalar arithmetic: arbitrary-precision rationals and real quadratic irrationals.

Rationals are plain ``fractions.Fraction`` values (``int`` is accepted
everywhere a rational is).  ``QuadExt`` represents a + b*sqrt(d) exactly for a
fixed square-free d > 1, closed under field operations, with the total order
induced by the real embedding (sqrt(d) > 0).  No rounding ever occurs.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import comb
from typing import Union


def binomial(i: int, j: int) -> int:
    """Binomial coefficient C(i, j), equal to 0 whenever j < 0 or i < j."""
    if j < 0 or i < j:
        return 0
    return comb(i, j)


def _is_square_free(d: int) -> bool:
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


@total_ordering
class QuadExt:
    """Exact element a + b*sqrt(d) of the real quadratic field Q(sqrt(d))."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a, b=0, d: int = 5):
        if d < 2 or not _is_square_free(d):
            raise ValueError(f"d must be a square-free integer > 1, got {d}")
        self._a = Fraction(a)
        self._b = Fraction(b)
        self._d = d

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def to_fraction(self) -> Fraction:
        if self._b != 0:
            raise ValueError(f"{self} is irrational")
        return self._a

    def conjugate(self) -> QuadExt:
        return QuadExt(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2 (the product with the conjugate)."""
        return self._a * self._a - self._d * self._b * self._b

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other._d == self._d:
                return other
            if other._b == 0:
                return QuadExt(other._a, 0, self._d)
            if self._b == 0:
                return None  # handled by caller re-dispatch
            raise ValueError(f"cannot mix Q(√{self._d}) with Q(√{other._d})")
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self._d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, QuadExt):  # self rational, adopt other's field
                return QuadExt(self._a, 0, other._d) + other
            return NotImplemented
        return QuadExt(self._a + o._a, self._b + o._b, self._d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, QuadExt):
                return QuadExt(self._a, 0, other._d) - other
            return NotImplemented
        return QuadExt(self._a - o._a, self._b - o._b, self._d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, QuadExt):
                return QuadExt(self._a, 0, other._d) * other
            return NotImplemented
        return QuadExt(
            self._a * o._a + self._d * self._b * o._b,
            self._a * o._b + self._b * o._a,
            self._d,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadExt:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadExt(self._a / n, -self._b / n, self._d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, QuadExt):
                return QuadExt(self._a, 0, other._d) / other
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self._d) * self.inverse()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadExt(1, 0, self._d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if self._d == other._d:
                return self._a == other._a and self._b == other._b
            if self._b == 0 and other._b == 0:
                return self._a == other._a
            return False  # values in distinct fields never coincide off Q
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other
        return NotImplemented

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __hash__(self):
        # rational-valued elements must hash like the Fraction they equal
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(d)."""
        a, b = self._a, self._b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        aa, dbb = a * a, self._d * b * b
        big_is_a = aa > dbb
        if a > 0:
            return 1 if big_is_a else -1
        return -1 if big_is_a else 1

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, QuadExt):
                return QuadExt(self._a, 0, other._d) < other
            return NotImplemented
        return (self - o).sign() < 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __repr__(self):
        return f"QuadExt({self._a!r}, {self._b!r}, d={self._d})"

    def __str__(self):
        return format_scalar(self)


Scalar = Union[int, Fraction, QuadExt]


def exact_div(x: Scalar, y: Scalar) -> Scalar:
    """Field division that never touches floats, whatever the operand types."""
    if isinstance(x, QuadExt) or isinstance(y, QuadExt):
        return x / y
    return Fraction(x) / Fraction(y)


def simplify(x: Scalar) -> Scalar:
    """Demote a rational-valued QuadExt to a Fraction; other scalars pass through."""
    if isinstance(x, QuadExt) and x.is_rational:
        return x.to_fraction()
    if isinstance(x, int):
        return Fraction(x)
    return x


def scalar_cmp(x: Scalar, y: Scalar) -> int:
    if x == y:
        return 0
    return -1 if x < y else 1


def format_scalar(x: Scalar) -> str:
    """Render a scalar in the literal syntax accepted by :func:`parse_scalar`."""
    x = simplify(x)
    if isinstance(x, Fraction):
        return str(x)
    parts = []
    if x.a != 0:
        parts.append(str(x.a))
    coef = x.b
    sign = "-" if coef < 0 else ("+" if parts else "")
    coef = abs(coef)
    root = f"√{x.d}"
    parts.append(f"{sign}{root}" if coef == 1 else f"{sign}{coef}{root}")
    return "".join(parts)


_RAT = r"[+-]?\d+(?:/\d+)?"
_RAT_ONLY = re.compile(rf"^({_RAT})$")
_QUAD_ONLY = re.compile(rf"^(?P<sign>[+-])?(?P<coef>\d+(?:/\d+)?)?(?:√|sqrt)(?P<d>\d+)$")
_COMBINED = re.compile(
    rf"^(?P<rat>{_RAT})(?P<sign>[+-])(?P<coef>\d+(?:/\d+)?)?(?:√|sqrt)(?P<d>\d+)$"
)


def _rational(text: str, literal: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar literal: {literal!r}") from None


def parse_scalar(text: str) -> Scalar:
    """Parse literals like ``7``, ``-2/3``, ``√5``, ``1/2√5`` or ``3/2+1/2√5``.

    ``sqrt5`` is accepted as an ASCII spelling of ``√5``.
    """
    s = text.strip().replace(" ", "")
    m = _RAT_ONLY.match(s)
    if m:
        return _rational(s, text)
    m = _QUAD_ONLY.match(s)
    if m:
        coef = _rational(m.group("coef") or "1", text)
        if m.group("sign") == "-":
            coef = -coef
        return QuadExt(0, coef, int(m.group("d")))
    m = _COMBINED.match(s)
    if m:
        coef = _rational(m.group("coef") or "1", text)
        if m.group("sign") == "-":
            coef = -coef
        return QuadExt(_rational(m.group("rat"), text), coef, int(m.group("d")))
    raise ValueError(f"not a scalar literal: {text!r}")


def scalar_to_json(x: Scalar):
    """JSON-able encoding: rationals as num/den strings, quadratic values as nested dicts."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return {"num": str(x.numerator), "den": str(x.denominator)}
    return {
        "a": scalar_to_json(x.a),
        "b": scalar_to_json(x.b),
        "d": x.d,
    }


def scalar_from_json(obj) -> Scalar:
    if "num" in obj:
        return Fraction(int(obj["num"]), int(obj["den"]))
    return QuadExt(
        scalar_from_json(obj["a"]),
        scalar_from_json(obj["b"]),
        int(obj["d"]),
    )

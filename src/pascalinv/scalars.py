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
from math import comb, isqrt
from typing import Union


def binomial(i: int, j: int) -> int:
    """Binomial coefficient C(i, j), equal to 0 whenever j < 0 or i < j."""
    if j < 0 or i < j:
        return 0
    return comb(i, j)


def _is_square_free(d: int) -> bool:
    # Trial division up to the cube root leaves a cofactor with at most two
    # prime factors, which is square-free unless it is a prime squared.
    p = 2
    while p * p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return False
        p += 1
    r = isqrt(d)
    return d == 1 or r * r != d


@total_ordering
class QuadExt:
    """Exact element a + b*sqrt(d) of the real quadratic field Q(sqrt(d))."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a, b=0, d: int = 5):
        if d >= 10**_RADICAND_DIGITS:
            raise ValueError(f"d must be below 10**{_RADICAND_DIGITS}, got {d}")
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
        return _quad(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2 (the product with the conjugate)."""
        return self._a * self._a - self._d * self._b * self._b

    def _parts(self, other):
        """``(a, b, c, e, d)``: self = a + b√d and other = c + e√d over one field.

        That field is self's, unless only other is irrational.  Two irrationals
        from distinct fields raise; a non-scalar other gives None.
        """
        if isinstance(other, QuadExt):
            if other._d == self._d or not other._b:
                return self._a, self._b, other._a, other._b, self._d
            if not self._b:
                return self._a, self._b, other._a, other._b, other._d
            raise ValueError(f"cannot mix Q(√{self._d}) with Q(√{other._d})")
        if isinstance(other, (int, Fraction)):
            return self._a, self._b, other, 0, self._d  # results still mix in self's Fractions
        return None

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        a, b, c, e, d = p
        return _quad(a + c, b + e, d)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self._a, -self._b, self._d)

    def __sub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        a, b, c, e, d = p
        return _quad(a - c, b - e, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        a, b, c, e, d = p
        return _quad(a * c + d * b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def inverse(self) -> QuadExt:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return _quad(self._a / n, -self._b / n, self._d)

    def __truediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        a, b, c, e, d = p
        n = c * c - d * e * e
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return _quad((a * c - d * b * e) / n, (b * c - a * e) / n, d)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = _quad(Fraction(1), Fraction(0), self._d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (  # values in distinct fields coincide only in Q
                self._a == other._a and self._b == other._b
                and (self._d == other._d or not self._b)
            )
        if isinstance(other, (int, Fraction)):
            return not self._b and self._a == other
        return NotImplemented

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __hash__(self):
        # rational-valued elements must hash like the Fraction they equal
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(d).

        t -> t|t| is increasing, so a > -b√d exactly when a|a| > -d*b|b|.
        """
        s = self._a * abs(self._a) + self._d * self._b * abs(self._b)
        return (s > 0) - (s < 0)

    def __lt__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() < 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __repr__(self):
        return f"QuadExt({self._a!r}, {self._b!r}, d={self._d})"

    def __str__(self):
        return format_scalar(self)


def _quad(a: Fraction, b: Fraction, d: int) -> QuadExt:
    """An arithmetic result, built without the constructor's checks: ``a`` and
    ``b`` are already Fractions and ``d`` comes from a validated operand."""
    x = object.__new__(QuadExt)
    x._a, x._b, x._d = a, b, d
    return x


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


def _int_str(n: int) -> str:
    """str(n) at any size: past the interpreter's int -> str digit limit
    (4300 digits by default since Python 3.11), n is cut into two halves of
    decimal digits, each written on its own."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_str(-n)
    half = n.bit_length() * 3 // 20  # about half of its decimal digits
    high, low = divmod(n, 10 ** half)
    return _int_str(high) + _int_str(low).zfill(half)


def _str_int(s: str) -> int:
    """int(s) for a digit string of any length, the inverse of :func:`_int_str`:
    past 640 digits, the least str -> int digit limit an interpreter may set,
    s is cut into two halves of digits, each read on its own."""
    if len(s) <= 640:
        return int(s)
    if s.startswith("-"):
        return -_str_int(s[1:])
    half = len(s) // 2
    return _str_int(s[:half]) * 10 ** (len(s) - half) + _str_int(s[half:])


def _rat_str(q: Fraction) -> str:
    num = _int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_str(q.denominator)}"


def format_scalar(x: Scalar) -> str:
    """Render a scalar in the literal syntax accepted by :func:`parse_scalar`."""
    x = simplify(x)
    if isinstance(x, Fraction):
        return _rat_str(x)
    parts = []
    if x.a != 0:
        parts.append(_rat_str(x.a))
    coef = x.b
    sign = "-" if coef < 0 else ("+" if parts else "")
    coef = abs(coef)
    root = f"√{x.d}"
    parts.append(f"{sign}{root}" if coef == 1 else f"{sign}{_rat_str(coef)}{root}")
    return "".join(parts)


_RAT = r"[+-]?\d+(?:/\d+)?"
# A radicand of at most 18 digits keeps the square-free test under ~10^6 steps.
_RADICAND_DIGITS = 18
_ROOT = rf"(?:√|sqrt)(?P<d>\d{{1,{_RADICAND_DIGITS}}})"
_RAT_ONLY = re.compile(rf"^({_RAT})$")
# An optional rational part, always followed by the sign of the root's coefficient.
_QUAD = re.compile(rf"^(?:(?P<rat>{_RAT})(?=[+-]))?(?P<sign>[+-])?(?P<coef>\d+(?:/\d+)?)?{_ROOT}$")


def _rational(text: str, literal: str) -> Fraction:
    num, _, den = text.partition("/")
    try:
        return Fraction(_str_int(num), _str_int(den or "1"))
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
    m = _QUAD.match(s)
    if m:
        coef = _rational(m.group("coef") or "1", text)
        if m.group("sign") == "-":
            coef = -coef
        return QuadExt(_rational(m.group("rat") or "0", text), coef, int(m.group("d")))
    raise ValueError(f"not a scalar literal: {text!r}")


def scalar_to_json(x: Scalar):
    """JSON-able encoding: rationals as num/den strings, quadratic values as nested dicts."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return {"num": _int_str(x.numerator), "den": _int_str(x.denominator)}
    return {
        "a": scalar_to_json(x.a),
        "b": scalar_to_json(x.b),
        "d": x.d,
    }


def scalar_from_json(obj) -> Scalar:
    if "num" in obj:
        return Fraction(_str_int(obj["num"]), _str_int(obj["den"]))
    return QuadExt(
        scalar_from_json(obj["a"]),
        scalar_from_json(obj["b"]),
        int(obj["d"]),
    )

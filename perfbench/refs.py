"""Reference values computed without pascalinv.

Every output the benchmark checks is compared with a value built here from
plain ``int`` and ``Fraction`` arithmetic: Lucas and Fibonacci numbers from
their recurrences, Bernoulli numbers from the Akiyama-Tanigawa algorithm
(a different method from the library's recurrence), K_n from its definition,
and the Pascal-type matrices from their entry formulas.  This module never
imports pascalinv.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

# Table 1 of the paper: B_0..B_12 (B_1 = -1/2) and K_0..K_12.
TABLE1_B = (
    Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30),
    Fraction(0), Fraction(1, 42), Fraction(0), Fraction(-1, 30), Fraction(0),
    Fraction(5, 66), Fraction(0), Fraction(-691, 2730),
)
TABLE1_K = (
    Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(1, 6),
    Fraction(1, 15), Fraction(1, 30), Fraction(1, 35), Fraction(1, 70),
    Fraction(-1, 105), Fraction(-1, 210), Fraction(41, 1155), Fraction(41, 2310),
)


def binom(i: int, j: int) -> int:
    return comb(i, j) if 0 <= j <= i else 0


def lucas_ints(n: int) -> list:
    out = [2, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out[:n]


def fib_ints(n: int) -> list:
    out = [0, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out[:n]


@lru_cache(maxsize=None)
def _bernoulli_table(n: int) -> tuple:
    # Akiyama-Tanigawa yields B_1 = +1/2; the paper's convention flips it.
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n >= 1:
        out[1] = -out[1]
    return tuple(out)


def bernoulli(n: int) -> list:
    """B_0 .. B_{n-1} with B_1 = -1/2."""
    return list(_bernoulli_table(n - 1)) if n > 0 else []


def alt_bernoulli(n: int) -> list:
    return [(-1) ** k * b for k, b in enumerate(bernoulli(n))]


def k_numbers(n: int) -> list:
    """K_0 .. K_{n-1}: K_n = sum_{k<n} (1/2)**(n-k) * (-1)**k * B_k."""
    bs = bernoulli(n)
    return [
        sum((Fraction(1, 2 ** (m - k)) * (-1) ** k * bs[k] for k in range(m)), Fraction(0))
        for m in range(n)
    ]


def geometric(pairs, n: int) -> list:
    return [sum((c * r**k for c, r in pairs), Fraction(0)) for k in range(n)]


def pd_rows(xs: list) -> list:
    """y_n = sum_k C(n, k) (-1)^k x_k for every n < len(xs)."""
    return [sum(binom(n, k) * (-1) ** k * xs[k] for k in range(n + 1)) for n in range(len(xs))]


def ptd_rows_finite(terms: list, depth: int) -> list:
    """y_n = sum_{k>=n} C(k, n) (-1)^k x_k for a finitely supported x."""
    return [
        sum(binom(k, n) * (-1) ** k * terms[k] for k in range(n, len(terms)))
        for n in range(depth)
    ]


def ptd_rows_geometric(pairs, depth: int) -> list:
    """sum_{k>=n} C(k, n) (-x)^k = (-x)^n / (1 + x)^(n+1), termwise over c * r^k."""
    return [
        sum((c * (-r) ** n / (1 + r) ** (n + 1) for c, r in pairs), Fraction(0))
        for n in range(depth)
    ]


def verdict(xs: list, ys: list) -> tuple:
    """(verdict, first_failure) of comparing the image ys with +xs and -xs."""
    plus = next((i for i, (x, y) in enumerate(zip(xs, ys)) if y != x), None)
    minus = next((i for i, (x, y) in enumerate(zip(xs, ys)) if y != -x), None)
    if plus is None:
        return "invariant", None
    if minus is None:
        return "inverse-invariant", None
    return "neither", max(plus, minus)


def t42a(xs: list) -> list:
    return [x + (2 * xs[n - 1] if n else 0) for n, x in enumerate(xs)]


def t42b(terms: list) -> list:
    """y_n = sum_{j>=n} (-1)^(j-n) (1/2)^(j-n+1) x_{j+1}, for x supported inside ``terms``."""
    return [
        sum(
            (Fraction((-1) ** (j - n), 2 ** (j - n + 1)) * terms[j + 1] for j in range(n, len(terms) - 1)),
            Fraction(0),
        )
        for n in range(max(len(terms) - 1, 0))
    ]


def t42c(xs: list) -> list:
    return [sum((Fraction(1, 2 ** (n - k)) * xs[k] for k in range(n)), Fraction(0)) for n in range(len(xs))]


def t42d(xs: list) -> list:
    """One term shorter than xs: y_n = -x_n + 2 x_{n+1}."""
    return [-xs[n] + 2 * xs[n + 1] for n in range(len(xs) - 1)]


def matrix_entry(name: str, i: int, j: int, param=None):
    if name == "P":
        return binom(i, j)
    if name == "PT":
        return binom(j, i)
    if name == "D":
        return (-1) ** i if i == j else 0
    if name == "A":
        return (-1) ** (j - i) if i <= j else 0
    if name == "L":
        return (-1) ** (i + j) if i >= j else 0
    if name == "Omega":
        return 1 if i >= j else 0
    if name == "Q":
        return binom(i, j) + (1 if i == j == 0 else binom(i - 1, j - 1))
    if name == "QT":
        return matrix_entry("Q", j, i)
    if name == "PD":
        return binom(i, j) * (-1) ** j
    if name == "PTD":
        return binom(j, i) * (-1) ** j
    if name == "DPD":
        return (-1) ** (i + j) * binom(i, j)
    if name == "J":
        return param if i == j else (1 if j == i + 1 else 0)
    if name == "Jinv":
        return Fraction((-1) ** (j - i)) / param ** (j - i + 1) if j >= i else 0
    raise ValueError(f"no reference for matrix {name!r}")


def qdown_column(j: int, depth: int) -> list:
    """Column j of the down-shifted Q = P + (1 (+) P): the j-th +1 eigenvector of PD."""
    return [matrix_entry("Q", i - j, j) if i >= j else 0 for i in range(depth)]


def zero_top_pdown_column(j: int, depth: int) -> list:
    """Column j of the down-shifted P under one zero row: the j-th -1 eigenvector of PD."""
    return [binom(i - 1 - j, j) if i - 1 >= j else 0 for i in range(depth)]


def ptdown_column(j: int, depth: int) -> list:
    """Column j of the down-shifted P^T: the j-th +1 eigenvector of P^T D."""
    return [matrix_entry("PT", i - j, j) if i >= j else 0 for i in range(depth)]


def qtdown00_column(j: int, depth: int) -> list:
    """Column j of the down-shifted Q^T less its row 0 and column 0: the j-th -1
    eigenvector of P^T D."""
    return [matrix_entry("QT", i - j, j + 1) if i >= j else 0 for i in range(depth)]


def matrix(name: str, size: int) -> list:
    return [[matrix_entry(name, i, j) for j in range(size)] for i in range(size)]


def identity(size: int) -> list:
    return [[int(i == j) for j in range(size)] for i in range(size)]


def block_sum(block, m: int) -> list:
    """m copies of a 2 x 2 block down the diagonal of a 2m x 2m zero matrix."""
    return [
        [block[i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(2 * m)]
        for i in range(2 * m)
    ]


def power_column(base: str, n: int, j: int, depth: int) -> list:
    """Column j of (P + D)^n or (P - D)^n; both are lower triangular, so a
    depth x depth truncation multiplies exactly."""
    sign = 1 if base == "P+D" else -1
    m = [[binom(i, k) + (sign * (-1) ** i if i == k else 0) for k in range(depth)] for i in range(depth)]
    col = [m[i][j] for i in range(depth)]
    for _ in range(n - 1):
        col = [sum(m[i][k] * col[k] for k in range(i + 1)) for i in range(depth)]
    return col

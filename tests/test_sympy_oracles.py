"""Differential tests against sympy, an independent exact-arithmetic oracle.

sympy is not a dependency of the package, so this module is skipped where it
is not installed.
"""
from fractions import Fraction

import pytest

from pascalinv.eigenstructure import make_factor, make_M, make_N
from pascalinv.operators import compose, make_operator, truncate
from pascalinv.sequences import bernoulli_number

sympy = pytest.importorskip("sympy")

SIZE = 12


def to_sympy(block):
    return sympy.Matrix(
        block.rows,
        block.cols,
        lambda i, j: sympy.Rational(block[i, j].numerator, block[i, j].denominator),
    )


def test_bernoulli_numbers_match_sympy():
    for n in range(201):
        want = sympy.bernoulli(n)
        if n == 1:
            want = -abs(want)  # sympy >= 1.12 takes B_1 = +1/2; the package takes -1/2
        assert bernoulli_number(n) == Fraction(int(want.p), int(want.q)), n


def test_pascal_inverse_is_d_p_d():
    p, d = make_operator("P"), make_operator("D")
    got = to_sympy(truncate(p, SIZE, SIZE)).inv()
    assert got == to_sympy(truncate(compose(d, compose(p, d)), SIZE, SIZE))


def test_n_and_m_match_their_factor_products_and_inverses():
    n = to_sympy(truncate(make_N(), SIZE, SIZE))
    m = to_sympy(truncate(make_M(), SIZE, SIZE))
    h_chain = u_chain = sympy.eye(SIZE)
    for k in range(1, SIZE // 2 + 1):  # later factors are the identity on this block
        h_chain = to_sympy(truncate(make_factor("H", k), SIZE, SIZE)) * h_chain
        u_chain = u_chain * to_sympy(truncate(make_factor("U", k), SIZE, SIZE))
    assert n == h_chain
    assert m == u_chain
    assert n.inv() == m
    assert n * m == sympy.eye(SIZE)
    assert to_sympy(truncate(compose(make_N(), make_M()), SIZE, SIZE)) == n * m

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pascalinv import eigenstructure as eig
from pascalinv.eigenstructure import (
    EigenSpaceId,
    _n_entry,
    basis_vector,
    coords_first_kind,
    factor_chain,
    formal_coords_second_kind,
    make_M,
    make_N,
    make_factor,
    ptdown,
    qdown,
    qtdown00,
    verify_block_diag,
    zero_top_pdown,
)
from pascalinv.operators import (
    DenseMat,
    TriOp,
    UPPER,
    compose,
    make_operator,
    pd,
    ptd,
    transpose,
    truncate,
)
from pascalinv.sequences import (
    ExpComb,
    FinSupp,
    apply_finite,
    apply_upper,
    check_invariance,
    fibonacci,
    in_eigenspace,
    lucas,
    prefix,
    seq_add,
    seq_scale,
    shift_down,
)

N_8 = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, -1, 1, -1, 1, -1, 1],
    [0, 0, 1, -1, 1, -1, 1, -1],
    [0, 0, 0, 1, -2, 3, -4, 5],
    [0, 0, 0, 0, 1, -2, 3, -4],
    [0, 0, 0, 0, 0, 1, -3, 6],
    [0, 0, 0, 0, 0, 0, 1, -3],
    [0, 0, 0, 0, 0, 0, 0, 1],
]
M_8 = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 2, 1, 1, 0],
    [0, 0, 0, 0, 1, 2, 3, 1],
    [0, 0, 0, 0, 0, 1, 3, 3],
    [0, 0, 0, 0, 0, 0, 1, 3],
    [0, 0, 0, 0, 0, 0, 0, 1],
]


def test_n_and_m_displays():
    assert truncate(make_N(), 8, 8) == DenseMat.from_rows(N_8)
    assert truncate(make_M(), 8, 8) == DenseMat.from_rows(M_8)
    assert make_N().entry(3, 5) == 3
    assert make_M().entry(4, 6) == 3


def test_n_m_inverse_pair():
    ident = DenseMat.identity(64)
    assert truncate(compose(make_N(), make_M()), 64, 64) == ident
    assert truncate(compose(make_M(), make_N()), 64, 64) == ident


def test_factor_chains_stabilise():
    for m in range(1, 7):
        s = 2 * m
        assert truncate(factor_chain("H", m), s, s) == truncate(make_N(), s, s)
        assert truncate(factor_chain("U", m), s, s) == truncate(make_M(), s, s)
    with pytest.raises(ValueError, match="m must be >= 1"):
        factor_chain("H", 0)


def test_factor_inverse_pair():
    prod = compose(make_factor("H", 1), make_factor("U", 1))
    assert truncate(prod, 8, 8) == DenseMat.identity(8)
    with pytest.raises(ValueError):
        make_factor("X", 1)
    with pytest.raises(ValueError):
        make_factor("H", 0)


def test_block_diagonalization():
    for m in range(1, 5):
        assert verify_block_diag(m)
    with pytest.raises(ValueError):
        verify_block_diag(0)


@pytest.mark.parametrize("s", range(1, 65))
def test_closed_entries_match_the_block_products(s):
    def from_entries(entry):
        return DenseMat.from_rows([[entry(i, c) for c in range(s)] for i in range(s)])

    def transposed(m):
        return DenseMat.from_rows(list(zip(*m.data)))

    nm = from_entries(eig._mn_entry)
    mdpn = from_entries(eig._mdpn_entry)
    assert nm == transposed(truncate(compose(make_N(), make_M()), s, s))
    assert mdpn == transposed(truncate(eig._conjugated_ptd(), s, s))
    conjugated = from_entries(lambda i, c: (-1) ** (i + c) * mdpn[i, c])
    assert conjugated == truncate(eig._conjugated_pd(), s, s)


@pytest.mark.parametrize("s", range(1, 65))
def test_row_and_column_rules_match_the_closed_entries(s):
    assert DenseMat.from_rows([eig.n_row(r, s) for r in range(s)]) == truncate(make_N(), s, s)
    columns = [eig.m_column(j, s) for j in range(s)]
    assert DenseMat.from_rows([list(row) for row in zip(*columns)]) == truncate(make_M(), s, s)


def test_block_diagonalization_is_sensitive():
    # perturbing a single entry of N must break the block structure
    real_n = make_N()

    def tampered(i, j):
        if (i, j) == (3, 5):
            return real_n.entry(i, j) + 1
        return real_n.entry(i, j)

    bad_n = TriOp(UPPER, tampered, "N'")
    prod = compose(compose(bad_n, ptd()), make_M())
    blocks = [[0] * 8 for _ in range(8)]
    for t in range(4):
        blocks[2 * t][2 * t] = 1
        blocks[2 * t][2 * t + 1] = -1
        blocks[2 * t + 1][2 * t + 1] = -1
    assert truncate(prod, 8, 8) != DenseMat.from_rows(blocks)


def test_basis_vector_shapes():
    vec = basis_vector(EigenSpaceId("PTD", 1), 2)
    assert isinstance(vec, FinSupp)
    assert vec.terms == (0, 0, 1, 2, 1)
    vec = basis_vector(EigenSpaceId("PTD", -1), 0)
    assert vec.terms == (1, 2)
    with pytest.raises(ValueError):
        basis_vector(EigenSpaceId("PTD", 1), -1)
    with pytest.raises(ValueError):
        EigenSpaceId("XX", 1)
    with pytest.raises(ValueError):
        EigenSpaceId("PD", 2)


MATRIX_FORMS = {
    ("PTD", 1): ptdown,
    ("PTD", -1): qtdown00,
    ("PD", 1): qdown,
    ("PD", -1): zero_top_pdown,
}


@pytest.mark.parametrize("op,ev", list(MATRIX_FORMS))
def test_basis_matches_matrix_columns(op, ev):
    mat = MATRIX_FORMS[(op, ev)]()
    for j in range(7):
        vec = basis_vector(EigenSpaceId(op, ev), j)
        assert prefix(vec, 24) == [mat.entry(i, j) for i in range(24)]


@pytest.mark.parametrize("ev", [1, -1])
@pytest.mark.parametrize("first_read", ["term", "prefix"])
def test_first_kind_basis_vectors_are_signed_rows_of_n(ev, first_read):
    # the closed entries of N, read one index at a time, against the row rule
    for j in range(16):
        if ev == 1:
            want = [(-1) ** i * (2 * _n_entry(2 * j, i) - _n_entry(2 * j + 1, i))
                    for i in range(64)]
        else:
            want = [(-1) ** (i + 1) * _n_entry(2 * j + 1, i) for i in range(64)]
        vec = basis_vector(EigenSpaceId("PD", ev), j)
        if first_read == "term":  # the last term first, then the rest in order
            last = vec.term(63)
            got = [vec.term(i) for i in range(63)] + [last]
        else:
            got = prefix(vec, 64)
        assert got == want, j
        assert [vec.term(i) for i in range(64)] == want
        assert {type(t) for t in got} == {int}
        assert vec.label == f"E{ev:+d}(PD) basis {j}"


@pytest.mark.parametrize("op,ev", list(MATRIX_FORMS))
def test_basis_eigen_equations(op, ev):
    for j in range(9):
        vec = basis_vector(EigenSpaceId(op, ev), j)
        want = [ev * t for t in prefix(vec, 32)]
        if op == "PTD":
            assert prefix(apply_upper(ptd(), vec), 32) == want
        else:
            assert apply_finite(pd(), vec, 32) == want


def test_first_kind_coords_membership():
    assert coords_first_kind(fibonacci(), -1, 24).residual_ok
    assert coords_first_kind(lucas(), 1, 24).residual_ok
    assert not coords_first_kind(fibonacci(), 1, 24).residual_ok
    with pytest.raises(ValueError):
        coords_first_kind(lucas(), 0, 24)
    with pytest.raises(ValueError):
        coords_first_kind(lucas(), 1, 1)


def test_first_kind_coords_reconstruct():
    res = coords_first_kind(lucas(), 1, 20)
    assert res.pivot_rows == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
    basis = qdown()
    recon = [
        sum(c * basis.entry(i, j) for j, c in enumerate(res.coefficients))
        for i in range(20)
    ]
    assert recon == prefix(lucas(), 20)


def test_first_kind_coords_agree_with_invariance_check():
    rng = random.Random(11)
    for _ in range(8):
        x = FinSupp(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 6))))
        depth = 16
        for sign in (1, -1):
            member = coords_first_kind(x, sign, depth).residual_ok
            wanted = "invariant" if sign == 1 else "inverse-invariant"
            report = check_invariance(x, "first", depth)
            verdict_member = report.verdict == wanted or prefix(x, depth) == [0] * depth
            assert member == verdict_member
    # and for genuine eigenspace members built from the bases
    y = seq_add(
        basis_vector(EigenSpaceId("PD", 1), 0),
        seq_scale(Fraction(-2, 3), basis_vector(EigenSpaceId("PD", 1), 2)),
    )
    assert coords_first_kind(y, 1, 20).residual_ok
    assert check_invariance(y, "first", 20).verdict == "invariant"


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def first_kind_member(sign, coeffs):
    """sum_j coeffs[j] * (basis vector j) of the sign's eigenspace of P D."""
    space = EigenSpaceId("PD", sign)
    return reduce(seq_add, [seq_scale(c, basis_vector(space, j)) for j, c in enumerate(coeffs)])


first_kind_inputs = st.one_of(
    st.lists(small_fractions, max_size=8).map(lambda ts: FinSupp(tuple(ts))),
    st.lists(st.tuples(small_fractions, small_fractions), min_size=1, max_size=3).map(
        lambda ps: ExpComb(tuple(ps))
    ),
    st.sampled_from((fibonacci(), lucas())),
    st.builds(
        first_kind_member,
        st.sampled_from((1, -1)),
        st.lists(small_fractions, min_size=1, max_size=6),
    ),
)


@settings(max_examples=200)
@given(first_kind_inputs, st.sampled_from((1, -1)), st.integers(min_value=2, max_value=20))
def test_first_kind_coords_agree_with_membership_on_every_class(x, sign, depth):
    res = coords_first_kind(x, sign, depth)
    assert res.residual_ok == in_eigenspace(x, "first", sign, depth)
    if res.residual_ok:
        space = EigenSpaceId("PD", sign)
        columns = [prefix(basis_vector(space, j), depth) for j in range(len(res.coefficients))]
        recon = [sum(c * col[i] for c, col in zip(res.coefficients, columns)) for i in range(depth)]
        assert recon == prefix(x, depth)


def test_second_kind_formal_coords():
    res = formal_coords_second_kind(shift_down(fibonacci()), 1, 12)
    assert res.residual_ok
    assert res.coefficients == [1] * 12
    # independent forward solve against the same staggered columns
    mat = ptdown()
    xs = prefix(shift_down(fibonacci()), 12)
    manual = []
    for i in range(12):
        manual.append(xs[i] - sum(mat.entry(i, t) * manual[t] for t in range(i)))
    assert manual == res.coefficients

    res = formal_coords_second_kind(basis_vector(EigenSpaceId("PTD", 1), 3), 1, 10)
    assert res.coefficients == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]

    res = formal_coords_second_kind(FinSupp((1,)), -1, 6)
    assert res.residual_ok and res.coefficients[0] == 1
    mat = qtdown00()
    recon = [
        sum(mat.entry(i, t) * res.coefficients[t] for t in range(6)) for i in range(6)
    ]
    assert recon == [1, 0, 0, 0, 0, 0]


def test_structural_identities():
    # L times the deleted down-shift of P^T rebuilds the full down-shift
    from pascalinv.operators import delete_leading, downshift

    ptdown00 = delete_leading(downshift(make_operator("PT")), 1, 1)
    lhs = compose(make_operator("L"), ptdown00)
    assert truncate(lhs, 12, 12) == truncate(ptdown(), 12, 12)
    # Omega inverts the lower bidiagonal -J(-1)^T
    neg_jm1_t = transpose(make_operator("J", -1))
    minus = TriOp(
        neg_jm1_t.band, lambda i, j: -neg_jm1_t.entry(i, j), "-J(-1)^T"
    )
    prod = compose(make_operator("Omega"), minus)
    assert truncate(prod, 12, 12) == DenseMat.identity(12)

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pascalinv.errors import InfiniteSumError
from pascalinv.operators import (
    Band,
    DenseMat,
    TriOp,
    banded,
    compose,
    delete_leading,
    downshift,
    lin_comb,
    make_operator,
    op_power,
    pd,
    ptd,
    transpose,
    truncate,
)
from pascalinv.scalars import QuadExt, binomial, scalar_from_json

ROOT5 = QuadExt(0, 1, 5)

BOUNDS = (None, 0, 1, 2)

# down-shifted transposed Pascal matrix as displayed, rows 0..7
PT_DOWN_8 = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 2, 1, 0, 0, 0, 0],
    [0, 0, 1, 3, 1, 0, 0, 0],
    [0, 0, 0, 3, 4, 1, 0, 0],
    [0, 0, 0, 1, 6, 5, 1, 0],
    [0, 0, 0, 0, 4, 10, 6, 1],
]


def test_pascal_entries():
    p = make_operator("P")
    assert p.entry(4, 2) == 6
    assert p.entry(2, 4) == 0
    assert truncate(p, 5, 5).data[4] == (1, 4, 6, 4, 1)


def test_diagonal_sign_operator():
    d = make_operator("D")
    assert d.band == banded(0, 0)
    assert [d.entry(i, i) for i in range(6)] == [1, -1, 1, -1, 1, -1]
    assert d.entry(2, 1) == 0


def test_jordan_blocks():
    j2 = make_operator("J", 2)
    assert j2.entry(3, 3) == 2 and j2.entry(3, 4) == 1 and j2.entry(3, 5) == 0
    jinv2 = make_operator("Jinv", 2)
    assert jinv2.entry(0, 2) == Fraction(1, 8)
    assert jinv2.entry(0, 0) == Fraction(1, 2)
    assert jinv2.entry(0, 1) == Fraction(-1, 4)
    assert jinv2.entry(1, 0) == 0


def test_jinv_inverts_j():
    for a in (2, -2, Fraction(3, 2), ROOT5):
        prod = compose(make_operator("J", a), make_operator("Jinv", a))
        assert truncate(prod, 10, 10) == DenseMat.identity(10)


def test_jinv_requires_nonzero_param():
    with pytest.raises(ValueError, match="nonzero"):
        make_operator("Jinv", 0)
    with pytest.raises(ValueError):
        make_operator("J")
    with pytest.raises(ValueError):
        make_operator("P", 3)
    with pytest.raises(ValueError):
        make_operator("nope")


# (name, param) -> (label, tag, (band.below, band.above))
NAMED_SNAPSHOT = {
    ("P", None): ("P", ("P",), (None, 0)),
    ("PT", None): ("P^T", ("T", make_operator("P")), (0, None)),
    ("D", None): ("D", ("D",), (0, 0)),
    ("A", None): ("A", ("T", make_operator("L")), (0, None)),
    ("L", None): ("L", ("L",), (None, 0)),
    ("Omega", None): ("Ω", ("Omega",), (None, 0)),
    ("Q", None): ("Q", ("Q",), (None, 0)),
    ("QT", None): ("Q^T", ("T", make_operator("Q")), (0, None)),
    ("PD", None): ("PD", ("PD",), (None, 0)),
    ("PTD", None): ("P^T D", ("PTD",), (0, None)),
    ("J", 2): ("J(2)", ("J", 2), (0, 1)),
    ("J", ROOT5): ("J(√5)", ("J", ROOT5), (0, 1)),
    ("Jinv", Fraction(1, 2)): ("J(1/2)^-1", ("Jinv", Fraction(1, 2)), (0, None)),
    ("Jinv", ROOT5): ("J(√5)^-1", ("Jinv", ROOT5), (0, None)),
}


@pytest.mark.parametrize("name, param", list(NAMED_SNAPSHOT), ids=lambda v: str(v))
def test_named_operator_snapshot(name, param):
    op = make_operator(name, param)
    assert (op.label, op.tag, (op.band.below, op.band.above)) == NAMED_SNAPSHOT[name, param]


@pytest.mark.parametrize(
    "name, param, message",
    [
        ("J", None, "J requires a parameter"),
        ("Jinv", None, "Jinv requires a parameter"),
        ("P", 3, "P takes no parameter"),
        ("nope", 1, "nope takes no parameter"),
        ("nope", None, "unknown operator name: 'nope'"),
        ("Jinv", 0, "Jinv parameter must be nonzero"),
        ("Jinv", QuadExt(0, 0, 5), "Jinv parameter must be nonzero"),
    ],
)
def test_make_operator_error_messages(name, param, message):
    with pytest.raises(ValueError) as info:
        make_operator(name, param)
    assert str(info.value) == message


@pytest.mark.parametrize("factory, name, entry", [
    (pd, "PD", lambda i, j: binomial(i, j) * (-1) ** j),
    (ptd, "PTD", lambda i, j: binomial(j, i) * (-1) ** j),
])
def test_pd_and_ptd_are_the_named_operators(factory, name, entry):
    got, want = factory(), make_operator(name)
    assert (got.label, got.band, got.tag) == (want.label, want.band, want.tag)
    block = DenseMat.from_rows([[entry(i, j) for j in range(12)] for i in range(12)])
    assert truncate(got, 12, 12) == truncate(want, 12, 12) == block


def test_q_matches_block_sum():
    q = make_operator("Q")
    assert q.entry(0, 0) == 2

    def block(i, j):
        # [[1, 0], [0, P]] as an explicit block matrix
        if i == 0 and j == 0:
            return 1
        if i == 0 or j == 0:
            return 0
        return binomial(i - 1, j - 1)

    for i in range(12):
        for j in range(12):
            assert q.entry(i, j) == binomial(i, j) + block(i, j)


def test_transpose_examples():
    assert truncate(transpose(make_operator("PT")), 16, 16) == truncate(
        make_operator("P"), 16, 16
    )
    t = transpose(lin_comb(1, make_operator("J", 1), 1, make_operator("J", 0)))
    assert t.band.above == 0
    assert all(t.entry(n, n) == 1 for n in range(6))
    assert all(t.entry(n + 1, n) == 2 for n in range(6))
    a = make_operator("A")
    assert truncate(transpose(transpose(a)), 10, 10) == truncate(a, 10, 10)


def test_lin_comb_examples():
    p, d = make_operator("P"), make_operator("D")
    p_plus_d = lin_comb(1, p, 1, d)
    assert p_plus_d.entry(1, 1) == 0
    assert lin_comb(1, p, -1, d).entry(0, 0) == 0
    jm = lin_comb(1, make_operator("J", -1), 1, make_operator("J", 0))
    assert all(jm.entry(n, n + 1) == 2 for n in range(5))
    assert all(jm.entry(n, n) == -1 for n in range(5))


@pytest.mark.parametrize("build, text", [
    (lambda: lin_comb(1, make_operator("P"), 1, make_operator("PT")), "TriOp('P+P^T', general)"),
    (lambda: delete_leading(make_operator("PT"), 0, 2), "TriOp('P^T(0|2)', upper-banded)"),
    (lambda: make_operator("J", 1), "TriOp('J(1)', banded)"),
])
def test_repr_names_the_band_shape(build, text):
    assert repr(build()) == text


def test_compose_inverse_identities():
    a, j1 = make_operator("A"), make_operator("J", 1)
    assert truncate(compose(a, j1), 8, 8) == DenseMat.identity(8)
    assert truncate(compose(j1, a), 8, 8) == DenseMat.identity(8)
    p, d = make_operator("P"), make_operator("D")
    dpd = compose(compose(d, p), d)
    assert truncate(compose(dpd, p), 8, 8) == DenseMat.identity(8)
    assert truncate(compose(p, dpd), 8, 8) == DenseMat.identity(8)


def test_compose_rejects_unbounded_inner_range():
    with pytest.raises(InfiniteSumError):
        compose(make_operator("PT"), make_operator("P"))
    # banded factors make the same pairing legal
    compose(make_operator("D"), make_operator("P"))
    compose(make_operator("PT"), make_operator("J", 0))


SIDES = st.one_of(st.none(), st.integers(0, 3))


@st.composite
def banded_ops(draw):
    """A leaf operator with a drawn band: nonzero small ints inside it, zero outside."""
    band = Band(draw(SIDES), draw(SIDES))
    seed = draw(st.integers(0, 10 ** 6))

    def entry(i, j):
        inside = (band.below is None or i - j <= band.below) and (
            band.above is None or j - i <= band.above)
        return (seed + 31 * i + 17 * j) ** 2 % 7 - 3 if inside else 0

    return TriOp(band, entry, f"X{seed}")


@settings(max_examples=200)
@given(banded_ops(), banded_ops())
def test_compose_entries_and_blocks_match_a_brute_force_product(a, b):
    # every legal pairing of lower, upper, banded and unbounded sides
    if a.band.above is None and b.band.below is None:
        with pytest.raises(InfiniteSumError):
            compose(a, b)
        return
    ab = compose(a, b)
    want = [[sum(a.entry(i, k) * b.entry(k, j) for k in range(i + j + 8)) for j in range(12)]
            for i in range(12)]
    assert [[ab.entry(i, j) for j in range(12)] for i in range(12)] == want
    assert truncate(ab, 12, 12) == DenseMat.from_rows(want)


def test_truncation_commutes_with_composition():
    # holds for lower*lower and upper*upper: the inner index stays in the block
    cases = [
        (make_operator("P"), make_operator("Q")),
        (make_operator("PT"), make_operator("A")),
        (make_operator("QT"), make_operator("Jinv", 2)),
        (make_operator("Omega"), pd()),
        (pd(), make_operator("D")),
    ]
    for left, right in cases:
        s = 12
        lhs = truncate(compose(left, right), s, s)
        rhs = truncate(left, s, s) @ truncate(right, s, s)
        assert lhs == rhs


def test_downshift_display_and_entries():
    ptd_down = downshift(make_operator("PT"))
    assert truncate(ptd_down, 8, 8) == DenseMat.from_rows(PT_DOWN_8)
    for j in range(8):
        assert ptd_down.entry(2 * j, j) == 1  # trailing entry C(j, j)
    assert downshift(make_operator("D")).entry(2, 1) == -1


def test_downshift_preserves_column_content():
    rng = random.Random(3)
    for op in (make_operator("P"), make_operator("PT"), make_operator("Q")):
        shifted = downshift(op)
        for _ in range(5):
            j = rng.randrange(0, 8)
            col = [op.entry(i, j) for i in range(12)]
            shifted_col = [shifted.entry(i, j) for i in range(12 + j)]
            assert shifted_col == [0] * j + col


def test_delete_leading():
    qt_down = downshift(make_operator("QT"))
    sub = delete_leading(qt_down, 1, 1)
    for i in range(8):
        for j in range(8):
            assert sub.entry(i, j) == qt_down.entry(i + 1, j + 1)
    p = make_operator("P")
    same = delete_leading(p, 0, 0)
    assert truncate(same, 6, 6) == truncate(p, 6, 6)
    with pytest.raises(ValueError):
        delete_leading(p, -1, 0)


def test_truncate_validation():
    p = make_operator("P")
    with pytest.raises(ValueError):
        truncate(p, 0, 5)
    mat = truncate(p, 3, 5)
    assert (mat.rows, mat.cols) == (3, 5)


def test_op_power():
    assert truncate(op_power(pd(), 2), 16, 16) == DenseMat.identity(16)
    p_plus_d = lin_comb(1, make_operator("P"), 1, make_operator("D"))
    assert truncate(op_power(p_plus_d, 1), 8, 8) == truncate(p_plus_d, 8, 8)
    cubed = op_power(p_plus_d, 3)
    t = truncate(p_plus_d, 10, 10)
    assert truncate(cubed, 10, 10) == t @ t @ t
    with pytest.raises(ValueError):
        op_power(p_plus_d, 0)


def test_involution_invariants():
    s = 32
    assert truncate(op_power(pd(), 2), s, s) == DenseMat.identity(s)
    assert truncate(op_power(ptd(), 2), s, s) == DenseMat.identity(s)


def test_dense_mat_serialization():
    mat = truncate(make_operator("Jinv", 2), 3, 3)
    parsed = json.loads(mat.to_json())
    assert [[scalar_from_json(e) for e in row] for row in parsed] == [
        list(row) for row in mat.data
    ]
    csv = mat.to_csv()
    assert csv.splitlines()[0] == "1/2,-1/4,1/8"


def test_dense_mat_validation():
    with pytest.raises(ValueError):
        DenseMat.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        DenseMat.identity(3) @ DenseMat.from_rows([[1, 2]])


@pytest.mark.parametrize("below", BOUNDS)
@pytest.mark.parametrize("above", BOUNDS)
def test_band_span_is_the_in_band_columns(below, above):
    band = Band(below, above)
    for i in range(12):
        for n in range(13):
            inside = [
                j for j in range(n)
                if (below is None or i - j <= below) and (above is None or j - i <= above)
            ]
            assert list(band.span(i, n)) == inside

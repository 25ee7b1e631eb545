"""The eigenspace facts the package states once: which matrix spans which
space, which complement class each power base predicts, which stage projects
onto which class, and the membership rule built on the invariance check."""
import pytest

from pascalinv import transforms as tr
from pascalinv.eigenstructure import BASIS_MATRICES, EigenSpaceId, basis_vector
from pascalinv.sequences import (
    FIRST,
    SECOND,
    FinSupp,
    check_invariance,
    in_eigenspace,
    lucas,
    unit,
)


def test_converse_classes_are_the_other_kind_with_the_opposite_sign():
    assert tr._CONVERSE_CLASSES == {
        "P+D": (SECOND, -1),
        "P-D": (SECOND, 1),
        "PT+D": (FIRST, -1),
        "PT-D": (FIRST, 1),
    }


@pytest.mark.parametrize(
    "cls, label",
    [
        ((FIRST, 1), "Q↓"),
        ((FIRST, -1), "J(0)^T·P↓"),
        ((SECOND, 1), "P^T↓"),
        ((SECOND, -1), "Q^T↓(1|1)"),
    ],
)
def test_basis_matrix_of_each_class(cls, label):
    assert BASIS_MATRICES[cls]().label == label


@pytest.mark.parametrize(
    "stage, name, sets, label",
    [
        (tr._STAGE_PTDOWN, "PTdown", (SECOND, 1), "P^T↓"),
        (tr._STAGE_QTDOWN00, "QTdown00", (SECOND, -1), "Q^T↓(1|1)"),
        (tr._STAGE_QDOWN, "Qdown", (FIRST, 1), "Q↓"),
        (tr._STAGE_ZERO_TOP_PDOWN, "[0;Pdown]", (FIRST, -1), "J(0)^T·P↓"),
    ],
    ids=["PTdown", "QTdown00", "Qdown", "[0;Pdown]"],
)
def test_projection_stage_keeps_its_operator_and_class(stage, name, sets, label):
    assert (stage.name, stage.sets) == (name, sets)
    # a geometric input takes the lazy path, whose label names the operator
    assert stage.run(lucas(), "continued").label == f"{label}·seq"


@pytest.mark.parametrize("op", ["PD", "PTD"])
@pytest.mark.parametrize("sign", [1, -1])
def test_basis_vectors_lie_in_their_space(op, sign):
    space = EigenSpaceId(op, sign)
    for j in range(6):
        assert in_eigenspace(basis_vector(space, j), space.kind, sign, 12)
        # and not in the space of the other sign
        assert not in_eigenspace(basis_vector(space, j), space.kind, -sign, 2 * j + 4)


@pytest.mark.parametrize("kind", [FIRST, SECOND])
@pytest.mark.parametrize("sign", [1, -1])
def test_zero_sequence_lies_in_every_space(kind, sign):
    assert in_eigenspace(FinSupp(()), kind, sign, 8)


def test_a_prefix_of_zeros_is_inconclusive():
    # e_5 is in neither first-kind space, but P D e_5 = -e_5 up to index 5
    e5 = FinSupp([0] * 5 + [1])
    assert in_eigenspace(e5, FIRST, -1, 5)
    assert not in_eigenspace(e5, FIRST, -1, 7)


@pytest.mark.parametrize("sign", [1, -1])
def test_a_zero_prefix_with_a_nonzero_image_is_no_member(sign):
    # (P^T D e_10)_0 = C(10, 0) = 1, so the depth-4 image is not zero
    report = check_invariance(unit(10), SECOND, 4)
    assert (report.verdict, report.first_failure) == ("neither", 0)
    assert not in_eigenspace(unit(10), SECOND, sign, 4)
    assert in_eigenspace(unit(10), FIRST, sign, 4)


def test_lucas_is_not_inverse_invariant_of_the_first_kind():
    assert in_eigenspace(lucas(), FIRST, 1, 16)
    assert not in_eigenspace(lucas(), FIRST, -1, 16)

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pascalinv import sequences, transforms
from pascalinv.eigenstructure import EigenSpaceId, basis_vector, ptdown, qtdown00
from pascalinv.errors import DivergentSumError, PoleError, SupportCapError, UnsupportedPairError
from pascalinv.scalars import QuadExt
from pascalinv.sequences import (
    AltBernoulli,
    ExpComb,
    FinSupp,
    KSeq,
    Lazy,
    check_invariance,
    fibonacci,
    geometric,
    in_eigenspace,
    lucas,
    prefix,
    seq_add,
    seq_scale,
    shift_down,
    unit,
)
from pascalinv.transforms import (
    Pipeline,
    TRANSFORM_STAGES,
    build_phi,
    build_psi,
    converse_check,
    orthogonality,
    power_column,
    power_column_class,
    t42a,
    t42b,
    t42c,
    t42d,
)


def test_t42a_shifted_fibonacci_to_lucas():
    out = t42a(shift_down(fibonacci()))
    assert isinstance(out, ExpComb)
    assert out.pairs == shift_down(lucas()).pairs
    assert prefix(out, 24) == prefix(shift_down(lucas()), 24)


def test_t42a_unit():
    assert t42a(unit(0)) == FinSupp((1, 2))
    rep = check_invariance(t42a(shift_down(fibonacci())), "second", 24, "continued")
    assert rep.verdict == "inverse-invariant"


def test_t42b_shifted_lucas_to_fibonacci():
    out = t42b(shift_down(lucas()))
    assert isinstance(out, ExpComb)
    assert out.pairs == shift_down(fibonacci()).pairs
    # the golden ratios lie inside the radius-2 disc: classical mode agrees
    classical = t42b(shift_down(lucas()), "classical")
    assert prefix(classical, 16) == prefix(out, 16)


def test_t42b_units_and_errors():
    assert t42b(unit(0)) == FinSupp(())
    assert t42b(unit(1)) == FinSupp((Fraction(1, 2),))
    with pytest.raises(DivergentSumError):
        t42b(geometric(1, 3), "classical")
    with pytest.raises(PoleError):
        t42b(geometric(1, -2))


def test_t42b_of_a_one_term_quadratic_finsupp_is_zero():
    # the shift leaves no term, irrational or not: the image holds the integer form
    assert t42b(FinSupp([QuadExt(0, 1, 5)])) == FinSupp(())
    out = t42b(FinSupp([QuadExt(1, 1, 5), 3]))
    assert out == FinSupp((Fraction(3, 2),)) and out._held.den == 2


def test_t42c_orbit():
    out = t42c(lucas())
    assert isinstance(out, ExpComb)
    assert out.pairs == fibonacci().pairs
    assert prefix(t42c(AltBernoulli()), 32) == prefix(KSeq(), 32)
    assert prefix(t42c(FinSupp(())), 8) == [0] * 8


def test_t42c_fallback_paths():
    # finite support: exact oracle against a hand-rolled prefix sum
    x = FinSupp((1, 0, -2))
    out = t42c(x)
    expected = [
        sum(Fraction(1, 2 ** (n - k)) * x.term(k) for k in range(n)) for n in range(10)
    ]
    assert prefix(out, 10) == expected
    # a ratio equal to 1/2 defeats the geometric telescoping
    y = t42c(geometric(1, Fraction(1, 2)))
    assert not isinstance(y, ExpComb)
    assert prefix(y, 4) == [0, Fraction(1, 2), Fraction(1, 2), Fraction(3, 8)]


def test_t42d_orbit():
    out = t42d(fibonacci())
    assert isinstance(out, ExpComb)
    assert out.pairs == lucas().pairs
    assert prefix(t42d(KSeq()), 32) == prefix(AltBernoulli(), 32)
    assert t42d(unit(0)) == FinSupp((-1,))


def test_round_trips():
    j0f = shift_down(fibonacci())
    assert prefix(t42b(t42a(j0f)), 24) == prefix(j0f, 24)
    assert prefix(t42d(t42c(lucas())), 32) == prefix(lucas(), 32)


def test_build_validation():
    with pytest.raises(ValueError):
        build_phi(0)
    with pytest.raises(ValueError):
        build_psi(2, "fancy")


def test_phi1_is_projection():
    x = FinSupp((3, -1, 2))
    out = build_phi(1).apply(x)
    from pascalinv.eigenstructure import ptdown

    mat = ptdown()
    want = [
        sum(mat.entry(i, t) * x.term(t) for t in range(x.support_bound))
        for i in range(12)
    ]
    assert prefix(out, 12) == want
    assert build_phi(1).output_class() == ("second", 1)
    assert check_invariance(out, "second", 16).verdict == "invariant"


def test_phi2_output_is_a_minus_basis_column():
    out = build_phi(2).apply(unit(7))
    col = [qtdown00().entry(i, 7) for i in range(24)]
    assert prefix(out, 24) == col
    assert prefix(out, 16) == [0, 0, 0, 0, 0, 0, 0, 1, 9, 35, 77, 105, 91, 49, 15, 2]
    assert build_phi(2).output_class() == ("second", -1)
    assert check_invariance(out, "second", 24).verdict == "inverse-invariant"


def test_psitilde2_on_unit_seven():
    out = build_psi(2, "tilde").apply(unit(7))
    values = prefix(out, 20)
    assert values[:14] == [0] * 14
    assert values[14] == 2
    from pascalinv.scalars import binomial

    assert values == [binomial(i - 8, 6) + binomial(i - 7, 7) for i in range(20)]
    assert build_psi(2, "tilde").output_class() == ("first", 1)


def test_pipeline_class_bookkeeping():
    rng = random.Random(5)
    builders = [
        (build_phi, "plain"), (build_phi, "tilde"),
        (build_psi, "plain"), (build_psi, "tilde"),
    ]
    for build, variant in builders:
        for n in (1, 2, 3):
            pipe = build(n, variant)
            kind, sign = pipe.output_class()
            wanted = "invariant" if sign == 1 else "inverse-invariant"
            x = FinSupp(tuple(rng.randint(-3, 3) for _ in range(4)))
            if x.support_bound == 0:
                continue
            y = pipe.apply(x)
            rep = check_invariance(y, kind, 20)
            assert rep.verdict == wanted or prefix(y, 20) == [0] * 20


def test_pipeline_class_declarations():
    assert build_phi(3).output_class() == ("second", 1)
    assert build_phi(2, "tilde").output_class() == ("second", 1)
    assert build_phi(1, "tilde").output_class() == ("second", -1)
    assert build_psi(1).output_class() == ("first", 1)
    assert build_psi(2).output_class() == ("first", -1)
    assert build_psi(1, "tilde").output_class() == ("first", -1)
    # a lone flip stage cannot classify unknown input
    lone = Pipeline((TRANSFORM_STAGES["t42a"],))
    assert lone.output_class() is None
    assert lone.output_class(("second", 1)) == ("second", -1)


def test_power_column_examples():
    col = power_column("P+D", 1, 0)
    assert prefix(col, 6) == [2, 1, 1, 1, 1, 1]
    assert check_invariance(col, "first", 24).verdict == "invariant"

    col = power_column("P-D", 1, 0)
    assert prefix(col, 6) == [0, 1, 1, 1, 1, 1]
    assert check_invariance(col, "first", 24).verdict == "inverse-invariant"

    col = power_column("PT-D", 2, 3)
    assert isinstance(col, FinSupp)
    assert check_invariance(col, "second", 24).verdict == "inverse-invariant"

    with pytest.raises(ValueError):
        power_column("P*D", 1, 0)
    with pytest.raises(ValueError):
        power_column("P+D", 0, 0)
    assert power_column_class("PT+D") == ("second", 1)


def test_power_columns_full_grid():
    wanted = {
        "P+D": ("first", "invariant"),
        "P-D": ("first", "inverse-invariant"),
        "PT+D": ("second", "invariant"),
        "PT-D": ("second", "inverse-invariant"),
    }
    for base, (kind, verdict) in wanted.items():
        for n in (1, 2):
            for j in range(4):
                col = power_column(base, n, j)
                if isinstance(col, FinSupp) and col.support_bound == 0:
                    continue  # zero column: in both eigenspaces
                assert check_invariance(col, kind, 20).verdict == verdict


def test_orthogonality_examples():
    for j in range(7):
        y = basis_vector(EigenSpaceId("PTD", -1), j)
        assert orthogonality(lucas(), y) == 0
    x = basis_vector(EigenSpaceId("PD", -1), 2)
    y = basis_vector(EigenSpaceId("PTD", 1), 3)
    assert orthogonality(x, y) == 0
    assert orthogonality(unit(0), unit(0)) == 1
    # a finitely supported first operand is summed as the second
    x, y = FinSupp([1, 2, 3]), Lazy(lambda n: n + 1)
    assert orthogonality(x, y) == orthogonality(y, x) == 1 - 4 + 9


def test_orthogonality_closed_form():
    x = geometric(Fraction(1), Fraction(1, 3))
    y = geometric(Fraction(1), Fraction(1, 2))
    val = orthogonality(x, y)
    assert val == Fraction(6, 7)
    # oracle: 400-term exact partial sum with a geometric tail bound
    partial = sum(
        Fraction(1, 3) ** n * (-1) ** n * Fraction(1, 2) ** n for n in range(400)
    )
    tail = Fraction(1, 6) ** 400 * Fraction(6, 5)
    assert abs(partial - val) <= tail


def test_orthogonality_unsupported_pairs():
    with pytest.raises(UnsupportedPairError):
        orthogonality(geometric(1, 2), geometric(1, 1))
    with pytest.raises(UnsupportedPairError):
        orthogonality(Lazy(lambda n: n), Lazy(lambda n: n))


def test_converse_check():
    # substantive: orthogonality against all columns pins the predicted class
    y = basis_vector(EigenSpaceId("PTD", -1), 1)
    assert converse_check(y, "P+D", 24)
    y = basis_vector(EigenSpaceId("PTD", 1), 2)
    assert converse_check(y, "P-D", 24)
    # vacuous: the very first column already fails orthogonality
    assert converse_check(unit(0), "P+D", 24)
    assert converse_check(unit(0), "PT+D", 24)
    with pytest.raises(ValueError):
        converse_check(FinSupp(()), "P+D", 8)
    with pytest.raises(ValueError):
        converse_check(unit(0), "Q", 8)


def test_finsupp_dots_match_brute_force():
    rng = random.Random(17)
    xs = [
        lucas(),
        KSeq(),
        FinSupp((1, Fraction(-2, 3), 4)),
        basis_vector(EigenSpaceId("PD", 1), 2),
    ]
    for _ in range(20):
        size = rng.randint(0, 7)
        terms = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]
        y = FinSupp(terms)
        for x in xs:
            want = sum((x.term(n) * (-1) ** n * y.term(n) for n in range(len(terms))), 0)
            assert orthogonality(x, y) == want


def test_converse_check_matches_column_by_column_dots():
    from pascalinv.transforms import _CONVERSE_CLASSES, _POWER_BASES

    def reference(y, base, depth):
        X = _POWER_BASES[base][0]()
        for i in range(depth):
            dot = sum(X.entry(n, i) * (-1) ** n * y.term(n) for n in range(y.support_bound))
            if dot != 0:
                return True
        kind, sign = _CONVERSE_CLASSES[base]
        wanted = "invariant" if sign == 1 else "inverse-invariant"
        return check_invariance(y, kind, depth).verdict == wanted

    rng = random.Random(23)
    ys = [basis_vector(EigenSpaceId("PTD", s), j) for s in (1, -1) for j in range(3)]
    for _ in range(6):
        ys.append(FinSupp([Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(5)]))
    for y in ys:
        if y.support_bound == 0:
            continue
        for base in _CONVERSE_CLASSES:
            assert converse_check(y, base, 12) == reference(y, base, 12)


@settings(max_examples=80)
@given(
    st.sampled_from(sorted(TRANSFORM_STAGES)),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=6),
)
def test_t42_stages_land_in_the_class_they_claim(name, coeffs):
    stage = TRANSFORM_STAGES[name]
    kind, sign = stage.domain
    space = EigenSpaceId("PD" if kind == "first" else "PTD", sign)
    x = reduce(seq_add, [seq_scale(c, basis_vector(space, j)) for j, c in enumerate(coeffs)])
    assert in_eigenspace(stage.run(x, "continued"), *stage.out_class(stage.domain), 24)


@pytest.mark.parametrize("variant, bound", [("plain", lambda b: max(2 * b - 1, 0)),
                                            ("tilde", lambda b: 2 * b)])
def test_second_kind_projection_support_is_exact(variant, bound, monkeypatch):
    """The PTdown and QTdown00 stages of a FinSupp of support b have support
    exactly 2b-1 and 2b: their top column has degree 2b-2 or 2b-1, with
    leading coefficient 1 or 2, and the stage computes those rows only."""
    depths = []

    def counting(op, xs, depth):
        depths.append(depth)
        return row_sums(op, xs, depth)

    row_sums = sequences._row_sums
    monkeypatch.setattr(sequences, "_row_sums", counting)
    pipe = build_phi(1, variant)
    op = ptdown() if variant == "plain" else qtdown00()
    rng = random.Random(variant)
    scalars = [lambda: rng.randint(-3, 3), lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
               lambda: QuadExt(rng.randint(-2, 2), rng.randint(-2, 2), 5)]
    for length in [0, 1, 2] + [rng.randint(1, 9) for _ in range(30)]:
        x = FinSupp([rng.choice(scalars)() for _ in range(length)])
        b = x.support_bound
        y = pipe.apply(x)
        assert isinstance(y, FinSupp) and y.support_bound == bound(b), (x, y)
        assert depths.pop() == bound(b)
        full = [sum((op.entry(i, j) * t for j, t in enumerate(x.terms)), 0) for i in range(2 * b + 3)]
        assert prefix(y, 2 * b + 3) == full


def _supports_stage_by_stage(pipe, x):
    """The support bound after each stage, while the images stay FinSupps."""
    out = []
    for stage in pipe.steps:
        x = stage.run(x, "continued")
        if not isinstance(x, FinSupp):
            break
        out.append(x.support_bound)
    return out


def test_predicted_support_is_exact_for_phitilde_on_a_short_input():
    x = FinSupp([1, 2])
    for n in range(1, 13):
        pipe = build_phi(n, "tilde")
        assert list(pipe.predicted_supports(x)) == _supports_stage_by_stage(pipe, x), n
    assert list(build_phi(12, "tilde").predicted_supports(x))[-2:] == [66, 65]


def test_predicted_support_bounds_every_pipeline_stage_by_stage():
    rng = random.Random("support")
    for build, variant, n in [(b, v, n) for b in (build_phi, build_psi)
                              for v in ("plain", "tilde") for n in range(1, 9)]:
        pipe = build(n, variant)
        for _ in range(3):
            x = FinSupp([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(rng.randint(0, 5))])
            predicted = list(pipe.predicted_supports(x))
            actual = _supports_stage_by_stage(pipe, x)
            assert len(predicted) == len(actual), (pipe.describe(), x)
            assert all(a <= p for a, p in zip(actual, predicted)), (pipe.describe(), x)
    assert list(build_phi(3).predicted_supports(lucas())) == []


def test_pipeline_refuses_a_support_past_the_cap_before_any_stage_runs():
    x = FinSupp([1, 2])
    assert max(build_phi(24, "tilde").predicted_supports(x)) <= transforms.SUPPORT_CAP
    ran = []
    spy = transforms.Stage("spy", lambda s, m: ran.append(s) or s)
    pipe = Pipeline((spy,) + build_phi(400, "tilde").steps)
    assert list(pipe.predicted_supports(x)) == []  # the spy stage ends the prediction
    with pytest.raises(SupportCapError, match=r"stage 25 of 400 .* 8194 terms"):
        build_phi(400, "tilde").apply(x)
    with pytest.raises(SupportCapError):
        Pipeline(build_phi(400, "tilde").steps + (spy,)).apply(x)
    assert ran == []


def test_the_cap_counts_growth_not_the_input_support():
    # an input past the cap may run linear stages and one doubling stage
    x = FinSupp(list(range(1, 9001)))
    for name, f in (("t42a", t42a), ("t42d", t42d)):
        assert Pipeline((TRANSFORM_STAGES[name],)).apply(x) == f(x), name
    build_phi(2).check_support(x)  # PTdown then t42a: 17,999 + 1 terms
    build_phi(1, "tilde").check_support(x)  # QTdown00: 18,000 terms
    with pytest.raises(SupportCapError, match=r"stage 3 of 3 .* past the cap of 18000"):
        build_phi(3).check_support(x)
    with pytest.raises(SupportCapError, match=r"stage 3 of 3 .* past the cap of 18000"):
        build_phi(3).apply(x)

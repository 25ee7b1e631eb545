from itertools import islice

import pytest

from pascalinv import checks, eigenstructure as eig, transforms
from pascalinv.checks import (
    SUITES,
    RunConfig,
    check_orthogonality,
    check_pipeline_classes,
    check_power_columns,
    check_stabilization,
    check_transform_orbit,
    run_suite,
)
from pascalinv.eigenstructure import EigenSpaceId, basis_vector, factor_chain, make_M, make_N
from pascalinv.operators import TriOp, truncate
from pascalinv.sequences import ExpComb, FinSupp, check_invariance, fibonacci, lucas, prefix
from pascalinv.transforms import TRANSFORM_STAGES, Pipeline, converse_check, power_column


@pytest.mark.parametrize("depth", range(2, 9))
def test_every_suite_passes_at_small_depths(depth):
    results = run_suite("all", RunConfig(depth=depth))
    assert [r.name for r in results if not r.passed] == []
    assert {r.detail for r in results} == {""}


def test_run_suite_stops_at_the_first_failing_case(monkeypatch):
    def probe(cfg):
        yield True
        yield False
        raise AssertionError("read past the first failing case")

    monkeypatch.setitem(SUITES, "eigen", {"probe": probe})
    [result] = run_suite("eigen", RunConfig(depth=5))
    assert (result.name, result.passed, result.depth, result.detail) == ("probe", False, 5, "case 1")
    assert result.elapsed_ms >= 0


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="^unknown suite 'nope'; choose from"):
        run_suite("nope", RunConfig())


@pytest.mark.parametrize("check, entry", [("NM-identity", "_mn_entry"),
                                          ("block-diag", "_mdpn_entry")])
def test_similarity_checks_read_every_column_of_the_block(check, entry, monkeypatch):
    # (20, 18) lies outside the 16x16 corner that block-diag once read
    real = getattr(eig, entry)
    monkeypatch.setattr(eig, entry, lambda i, c: real(i, c) + ((i, c) == (20, 18)))
    results = {r.name: r for r in run_suite("similarity", RunConfig(depth=24))}
    assert [name for name, r in results.items() if not r.passed] == [check]
    assert results[check].detail == "case 18"


def test_membership_checks_read_the_full_depth(monkeypatch):
    depths = []

    def spy(real, at):
        def wrapped(*args):
            depths.append(args[at])
            return real(*args)
        return wrapped

    monkeypatch.setattr(checks, "in_eigenspace", spy(checks.in_eigenspace, 3))
    monkeypatch.setattr(transforms, "converse_check", spy(transforms.converse_check, 2))
    cfg = RunConfig(depth=40)
    assert all(check_orthogonality(cfg)) and all(check_pipeline_classes(cfg))
    # two converse checks, then 36 pipeline outputs
    assert depths == [40] * 38


def test_power_columns_skip_prefixes_that_are_all_zero():
    # column 4 of (P-D)^1 starts below row 3, so a depth-3 prefix cannot judge it
    assert prefix(power_column("P-D", 1, 4), 3) == [0, 0, 0]
    assert all(check_power_columns(RunConfig(depth=3)))


@pytest.mark.parametrize("base, space", [("P+D", ("PTD", -1)), ("P-D", ("PTD", 1))])
def test_converse_check_reads_the_whole_support(base, space):
    y = basis_vector(EigenSpaceId(*space), 2)
    assert y.support_bound > 2
    assert converse_check(y, base, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_invariance(lucas(), "first", 8, mode="bogus"),
        # t42a runs no second-kind sum, so nothing past the entry reads the mode
        lambda: Pipeline((TRANSFORM_STAGES["t42a"],)).apply(FinSupp((1, 2)), "bogus"),
        lambda: run_suite("inversion", RunConfig(mode="bogus")),
    ],
    ids=["check_invariance", "Pipeline.apply", "run_suite"],
)
def test_unknown_mode_is_rejected_at_the_entry(call):
    with pytest.raises(ValueError, match="unknown mode: 'bogus'"):
        call()


def _chain_matches_closed_form(m):
    s = 2 * m
    return all(
        truncate(factor_chain(kind, m), s, s) == truncate(closed(), s, s)
        for kind, closed in (("H", make_N), ("U", make_M))
    )


@pytest.mark.parametrize("top", range(1, 7))
def test_stabilization_at_the_largest_m_decides_every_smaller_one(top):
    for kind in ("H", "U"):
        full = factor_chain(kind, top)
        for m in range(1, top + 1):
            assert truncate(full, 2 * m, 2 * m) == truncate(factor_chain(kind, m), 2 * m, 2 * m)
    for depth in (2 * top, 2 * top + 1):
        passed = all(check_stabilization(RunConfig(depth=depth)))
        assert passed == all(_chain_matches_closed_form(m) for m in range(1, top + 1))
    # below depth 2 there is no chain to compare
    assert list(check_stabilization(RunConfig(depth=1))) == []


@pytest.mark.parametrize("rule, k, at, case", [
    ("n_row", 20, 30, 20),  # row 20 of N, column 30
    ("n_row", 25, 3, 25),  # below the diagonal of row 25
    ("m_column", 30, 20, 32 + 30),  # column 30 of M, row 20
    ("m_column", 30, 31, 32 + 30),  # below the diagonal of column 30
])
def test_stabilization_reads_the_whole_block(rule, k, at, case, monkeypatch):
    # every perturbed entry lies outside the 12x12 corner that stabilization
    # once read; rows of N are cases 0..31 and columns of M cases 32..63
    real = getattr(eig, rule)

    def perturbed(j, s):
        out = real(j, s)
        out[at] += j == k
        return out

    monkeypatch.setattr(eig, rule, perturbed)
    results = {r.name: r for r in run_suite("similarity", RunConfig(depth=32))}
    assert [name for name, r in results.items() if not r.passed] == ["stabilization"]
    assert results["stabilization"].detail == f"case {case}"


def test_stabilization_reads_no_closed_entry_and_no_factor_chain(monkeypatch):
    def banned(*args):
        raise AssertionError("read an entry or a factor chain")

    for name in ("_n_entry", "_m_entry", "comb", "factor_chain", "make_factor"):
        monkeypatch.setattr(eig, name, banned)
    monkeypatch.setattr(checks, "truncate", banned)
    for depth in (2, 3, 32, 65):
        cases = list(check_stabilization(RunConfig(depth=depth)))
        assert len(cases) == 2 * depth and all(cases)


@pytest.mark.parametrize("k, at", [(7, 20), (10, 11), (3, 31)])
def test_the_eigen_suite_reads_the_first_kind_basis_from_the_rows_of_n(k, at, monkeypatch):
    # row k of N feeds first-kind basis vector k // 2; its closed entries are
    # independent of n_row, so both eigen checks see one perturbed entry
    real = eig.n_row

    def perturbed(r, s):
        out = real(r, s)
        out[at] += r == k
        return out

    monkeypatch.setattr(eig, "n_row", perturbed)
    results = run_suite("eigen", RunConfig(depth=32))
    assert [r.name for r in results if not r.passed] == ["basis-eigen", "basis-matrix-agreement"]


def test_basis_matrix_agreement_reads_no_entry(monkeypatch):
    def banned(*args):
        raise AssertionError("read an entry")

    guarded = {key: lambda op=make(): TriOp(op.band, banned, op.label, op.tag)
               for key, make in eig.BASIS_MATRICES.items()}
    monkeypatch.setattr(eig, "BASIS_MATRICES", guarded)
    monkeypatch.setattr(eig, "_n_entry", banned)
    for depth in (2, 9, 32):
        cases = list(checks.check_basis_matrix_agreement(RunConfig(depth=depth)))
        assert len(cases) == 36 and all(cases)


@pytest.mark.parametrize("case, name", enumerate(("t42c", "t42d", "t42a", "t42b")))
def test_transform_orbit_names_a_broken_map(case, name, monkeypatch):
    monkeypatch.setattr(transforms, name, lambda x, *mode: x)
    for depth in (2, 16):
        orbit = {r.name: r for r in run_suite("transforms", RunConfig(depth=depth))}
        result = orbit["transform-orbit"]
        assert (result.passed, result.detail) == (False, f"case {case}")


def test_binet_orbit_lines_read_no_prefix(monkeypatch):
    def no_prefix(self, depth):
        raise AssertionError("an ExpComb prefix was read")

    monkeypatch.setattr(ExpComb, "_prefix", no_prefix)
    with pytest.raises(AssertionError, match="prefix was read"):
        prefix(fibonacci(), 3)
    for depth in (0, 8, 64):
        for mode in ("continued", "classical"):
            binet = islice(check_transform_orbit(RunConfig(depth=depth, mode=mode)), 4)
            assert list(binet) == [True] * 4

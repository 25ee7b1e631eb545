import pytest

from pascalinv.checks import RunConfig, check_power_columns, run_suite
from pascalinv.eigenstructure import EigenSpaceId, basis_vector
from pascalinv.sequences import prefix
from pascalinv.transforms import converse_check, power_column


@pytest.mark.parametrize("depth", range(2, 9))
def test_every_suite_passes_at_small_depths(depth):
    results = run_suite("all", RunConfig(depth=depth))
    assert [r.name for r in results if not r.passed] == []


def test_power_columns_skip_prefixes_that_are_all_zero():
    # column 4 of (P-D)^1 starts below row 3, so a depth-3 prefix cannot judge it
    assert prefix(power_column("P-D", 1, 4), 3) == [0, 0, 0]
    assert check_power_columns(RunConfig(depth=3))[1]


@pytest.mark.parametrize("base, space", [("P+D", ("PTD", -1)), ("P-D", ("PTD", 1))])
def test_converse_check_reads_the_whole_support(base, space):
    y = basis_vector(EigenSpaceId(*space), 2)
    assert y.support_bound > 2
    assert converse_check(y, base, 2)

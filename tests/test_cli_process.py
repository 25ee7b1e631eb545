"""Fresh-process tests of the lazy imports behind the CLI and the package,
and of how the CLI ends when its stdout is closed early.

An in-process test imports every module before it runs, so it would hide a
subcommand that uses a module it never imports.  Each command here runs in a
new interpreter instead.
"""
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pascalinv

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = Path(__file__).parent / "fixtures"
HEAVY = ("pascalinv.checks", "pascalinv.transforms", "pascalinv.eigenstructure", "pascalinv.oeis")

# Every name the package exported when it imported all of its modules up front.
EXPORTED = (
    "AltBernoulli Band Bernoulli CoordResult DenseMat DivergentSumError EigenSpaceId "
    "ExpComb FinSupp InfiniteSumError InvarianceReport KSeq Lazy PascalinvError Pipeline "
    "PoleError QuadExt Scalar Seq Stage TriOp UnsupportedPairError UnsupportedSequenceError "
    "apply_finite apply_upper banded basis_vector bernoulli_number binomial build_phi "
    "build_psi check_invariance compose converse_check coords_first_kind delete_leading "
    "difference downshift exact_div factor_chain fibonacci formal_coords_second_kind "
    "format_scalar geometric k_number lin_comb lucas make_M make_N make_factor "
    "make_operator newton_reconstruct op_power orthogonality parse_scalar pd power_column "
    "power_column_class prefix ptd ptdown qdown qtdown00 scalar_from_json scalar_to_json "
    "shift_down shift_up simplify t42a t42b t42c t42d term transpose truncate unit "
    "verify_block_diag zero_top_pdown"
).split()


def _python(*args, env=(), stdout=subprocess.PIPE, timeout=120, preexec_fn=None):
    full_env = {k: v for k, v in os.environ.items() if not k.startswith("PASCALINV_")}
    full_env.update(env, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args],
        env=full_env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


def test_gen_loads_no_heavy_module():
    # nor do check, table1, a plain matrix or a parse error: the CLI names the
    # OEIS lookup errors, so they must not pull in the client
    for argv, code, first_line in [
        (["gen", "fib", "--depth", "4"], 0, "0,1,1,2"),
        (["check", "lucas", "--kind", "first", "--depth", "8"], 0, "invariant (kind=first"),
        (["table1"], 0, "B: 1,-1/2,1/6"),
        (["matrix", "P", "--rows", "2", "--cols", "2"], 0, "1  0"),
        (["gen", "finsupp:[1,"], 2, ""),
    ]:
        script = (
            "import sys, pascalinv.cli\n"
            f"code = pascalinv.cli.main({argv!r})\n"
            f"print(code, sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
        )
        proc = _python("-c", script)
        assert proc.returncode == 0, proc.stderr
        *lines, last = proc.stdout.splitlines()
        assert last == f"{code} []", argv
        assert (lines[0] if lines else "").startswith(first_line), argv


@pytest.mark.parametrize(
    "argv, fixtures, code, marker",
    [
        (("apply", "t42c", "lucas", "--depth", "8"), False, 0, "0,1,1,2,3,5,8,13"),
        (("matrix", "N", "--rows", "2", "--cols", "3"), False, 0, "0  1  -1"),
        (("verify", "inversion", "--depth", "8"), False, 0, "4/4 checks passed"),
        (("oeis", "lucas", "--offline", "--depth", "10"), True, 0, "A000032"),
        (("oeis", "finsupp:[3,1,4]", "--offline"), False, 1, "error: no cached response"),
        (("oeis", "bernoulli", "--offline"), False, 2, "error: non-integer term"),
    ],
    ids=["apply", "matrix-N", "verify", "oeis-fixture", "oeis-miss", "oeis-non-integer"],
)
def test_lazy_path_in_a_fresh_process(tmp_path, argv, fixtures, code, marker):
    env = {"PASCALINV_OEIS_CACHE": str(tmp_path)}
    if fixtures:
        env["PASCALINV_OEIS_FIXTURES"] = str(FIXTURES)
    proc = _python("-m", "pascalinv", *argv, env=env)
    assert proc.returncode == code, proc.stderr
    assert marker in (proc.stdout if code == 0 else proc.stderr)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "N", "--rows", "64", "--cols", "64", "--format", "json"),
        ("gen", "kseq", "--depth", "400"),
    ],
    ids=["matrix-json", "gen-kseq"],
)
def test_stdout_closed_early_ends_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with a broken pipe
    try:
        proc = _python("-m", "pascalinv", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert 0 <= proc.returncode <= 5


@pytest.mark.parametrize(
    "n, code, marker",
    [(3, 0, "class: inverse invariant of the first kind"), (400, 2, "recursion limit")],
)
def test_deep_pipeline_ends_in_a_documented_exit_code(n, code, marker):
    # every t42d stage nests four lazy images, so 400 stages pass the recursion limit
    proc = _python("-m", "pascalinv", "apply", f"psitilde({n})", "kseq", "--depth", "4")
    assert proc.returncode == code, proc.stderr
    assert marker in (proc.stdout if code == 0 else proc.stderr)
    assert "Traceback" not in proc.stderr, proc.stderr


def test_every_exported_name_resolves():
    namespace = {}
    exec("from pascalinv import *", namespace)
    listing = dir(pascalinv)
    for name in EXPORTED:
        assert name in listing
        assert namespace[name] is getattr(pascalinv, name)
    assert sorted(pascalinv.__all__) == sorted(EXPORTED)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        pascalinv.nonexistent


def test_large_radicand_is_validated_once():
    start = time.perf_counter()
    proc = _python("-m", "pascalinv", "gen", "geom:(1,sqrt999999999999999989)", "--depth", "3")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(",")[1] == "√999999999999999989"
    assert elapsed < 2, elapsed


def test_radicand_longer_than_18_digits_is_a_parse_error():
    proc = _python("-m", "pascalinv", "gen", "geom:(1,sqrt1000000000000000003)", "--depth", "3")
    assert proc.returncode == 2, proc.stderr
    assert "parse error" in proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


def test_library_radicand_past_18_digits_raises_at_once():
    code = (
        "from pascalinv.scalars import QuadExt, scalar_from_json\n"
        "one = {'num': '1', 'den': '1'}\n"
        "try:\n"
        "    scalar_from_json({'a': one, 'b': one, 'd': 10**30 + 57})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print(QuadExt(0, 1, 999999999999999989))\n"
    )
    proc = _python("-c", code, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "d must be below 10**18, got 1000000000000000000000000000057",
        "√999999999999999989",
    ]


def test_library_imports_leave_out_dataclasses_and_inspect():
    # compared with a bare interpreter, so modules that site loads itself do not count
    show = "import sys; print(' '.join(sorted(sys.modules)))"
    bare = _python("-c", show)
    full = _python(
        "-c", "import pascalinv.cli, pascalinv.checks, pascalinv.oeis, pascalinv.transforms; " + show
    )
    assert bare.returncode == 0 and full.returncode == 0, bare.stderr + full.stderr
    added = set(full.stdout.split()) - set(bare.stdout.split())
    assert "pascalinv.checks" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)


TOO_BIG = str(sys.maxsize + 1)


def _cap_memory():
    # without the size check, matrix would fill memory one row at a time
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv, code, marker",
    [
        (("oeis", "lucas", "--offline", "--depth", "100"), 1,
         "error: no cached response for prefix 2,1,3,4,"),
        (("gen", "geom:(1,2)", "--depth", TOO_BIG), 2, "--depth must be <= "),
        (("check", "lucas", "--kind", "first", "--depth", TOO_BIG), 2, "--depth must be <= "),
        (("apply", "t42a", "lucas", "--depth", TOO_BIG), 2, "--depth must be <= "),
        (("verify", "all", "--depth", TOO_BIG), 2, "--depth must be <= "),
        (("matrix", "P", "--rows", TOO_BIG), 2, "--rows must be <= "),
        (("matrix", "P", "--cols", TOO_BIG), 2, "--cols must be <= "),
    ],
    ids=["oeis-long-prefix", "gen", "check", "apply", "verify", "matrix-rows", "matrix-cols"],
)
def test_oversized_request_ends_in_one_error_line(tmp_path, argv, code, marker):
    proc = _python(
        "-m", "pascalinv", *argv,
        env={"PASCALINV_OEIS_CACHE": str(tmp_path)}, timeout=30, preexec_fn=_cap_memory,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(marker), proc.stderr


def _cap_memory_at_1_5_gb():
    resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))


# A depth that fits an index but not memory fails its first allocation.
# `gen kseq` at such sizes grows its work step by step instead of failing one
# allocation, so it is left out here; `matrix` refuses a block past its entry
# cap (below).
@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "fib"),
        ("check", "lucas", "--kind", "first"),
        ("apply", "t42a", "lucas"),
        ("verify", "all"),
    ],
    ids=["gen", "check", "apply", "verify"],
)
def test_depth_past_memory_ends_in_one_error_line(argv):
    start = time.perf_counter()
    proc = _python(
        "-m", "pascalinv", *argv, "--depth", "1000000000000000",
        timeout=30, preexec_fn=_cap_memory_at_1_5_gb,
    )
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: not enough memory for this request\n"


def test_runaway_pipeline_is_refused_up_front():
    # phitilde(400) on a FinSupp would double the support about 200 times
    start = time.perf_counter()
    proc = _python("-m", "pascalinv", "apply", "phitilde(400)", "finsupp:[1,2]", "--depth", "4",
                   timeout=10)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "past the cap of 8192" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_matrix_block_past_the_entry_cap_is_refused_up_front():
    # 10^10 entries: the refusal comes before any entry is computed
    start = time.perf_counter()
    proc = _python("-m", "pascalinv", "matrix", "P", "--rows", "100000", "--cols", "100000",
                   timeout=10, preexec_fn=_cap_memory_at_1_5_gb)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("error: a 100000 x 100000 block has 10000000000 entries, "
                           "past the cap of 16777216\n")


def test_riordan_module_loads_with_the_first_composed_truncation():
    # the first-kind checks of the benchmark's Q(√5) and rational shapes run PD's
    # own row rule, so none of them loads the module; truncating PD, a table
    # operator, reads its pair and loads it
    code = (
        "import sys, pascalinv as pv\n"
        "from fractions import Fraction as F\n"
        "pv.check_invariance(pv.lucas(), 'first', 32)\n"
        "pv.check_invariance(pv.KSeq(), 'first', 32)\n"
        "pv.check_invariance(pv.ExpComb([(F(2), F(1, 3)), (F(2), F(2, 3))]), 'first', 32)\n"
        "pv.check_invariance(pv.FinSupp([1, F(1, 2)]), 'first', 32)\n"
        "print('pascalinv.riordan' in sys.modules)\n"
        "pv.truncate(pv.pd(), 4, 4)\n"
        "print('pascalinv.riordan' in sys.modules)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_a_literal_past_the_int_str_digit_limit_round_trips():
    # 5,000 digits, past Python 3.11's default str -> int limit of 4300
    digits = "1" * 5000
    proc = _python("-m", "pascalinv", "gen", f"finsupp:[{digits}]", "--depth", "2", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{digits},0\n"

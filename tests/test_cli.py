import json
from fractions import Fraction

import pytest

from pascalinv import cli
from pascalinv.cli import main, parse_pipeline, parse_sequence
from pascalinv.operators import DenseMat
from pascalinv.scalars import scalar_from_json
from pascalinv.sequences import ExpComb, FinSupp, prefix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_fibonacci(capsys):
    code, out, _ = run(capsys, "gen", "fib", "--depth", "5")
    assert code == 0
    assert out.strip() == "0,1,1,2,3"


def test_gen_kseq_matches_table(capsys):
    code, out, _ = run(capsys, "gen", "kseq", "--depth", "13")
    assert code == 0
    assert out.strip() == "0,1/2,1/2,1/3,1/6,1/15,1/30,1/35,1/70,-1/105,-1/210,41/1155,41/2310"


def test_gen_geometric_literal(capsys):
    code, out, _ = run(capsys, "gen", "geom:(1,1/3)", "--depth", "4")
    assert code == 0
    assert out.strip() == "1,1/3,1/9,1/27"


def test_gen_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "gen", "nonsense:[", "--depth", "4")
    assert code == 2
    assert "parse error" in err


def test_sequence_literals():
    assert parse_sequence("finsupp:[1,0,-2/3]") == FinSupp((1, 0, Fraction(-2, 3)))
    geo = parse_sequence("geom:(1,1/3)+(1/2,-2)")
    assert isinstance(geo, ExpComb)
    assert len(geo.pairs) == 2
    tau = parse_sequence("geom:(1,1/2+1/2√5)")
    assert prefix(tau, 3)[2] == Fraction(3, 2) + Fraction(1, 2) * parse_sequence(
        "geom:(1,sqrt5)"
    ).term(1)
    with pytest.raises(ValueError):
        parse_sequence("geom:(1)")
    with pytest.raises(ValueError):
        parse_sequence("finsupp:{1}")


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "lucas", "--kind", "first")
    assert code == 0 and "invariant" in out
    code, out, _ = run(capsys, "check", "fib", "--kind", "first")
    assert code == 3 and "inverse-invariant" in out
    code, out, _ = run(capsys, "check", "finsupp:[1,1]", "--kind", "first")
    assert code == 4 and "neither" in out
    code, out, _ = run(capsys, "check", "finsupp:[1]", "--kind", "second")
    assert code == 0 and out.startswith("invariant")


def test_check_summation_error_exit_code(capsys):
    code, _, err = run(capsys, "check", "geom:(1,-1)", "--kind", "second")
    assert code == 5
    assert "summation error" in err
    code, _, err = run(
        capsys, "check", "geom:(1,2)", "--kind", "second", "--mode", "classical"
    )
    assert code == 5


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "lucas", "--kind", "first", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "invariant"
    assert payload["kind"] == "first"
    assert payload["depth"] == 32


def test_apply_t42c_lucas(capsys):
    code, out, _ = run(capsys, "apply", "t42c", "lucas", "--depth", "8")
    assert code == 0
    assert out.splitlines()[0] == "0,1,1,2,3,5,8,13"


def test_apply_pipeline_order_is_left_to_right(capsys):
    # a;b applies a first: t42d then t42c
    code, out, _ = run(capsys, "apply", "t42d;t42c", "lucas", "--depth", "8")
    assert code == 0
    from pascalinv.sequences import lucas
    from pascalinv.transforms import t42c, t42d

    want = prefix(t42c(t42d(lucas())), 8)
    got = [Fraction(tok) for tok in out.splitlines()[0].split(",")]
    assert got == want
    other = prefix(t42d(t42c(lucas())), 8)
    assert want != other  # the order genuinely matters on this input


def test_apply_phi2_announces_class(capsys):
    code, out, _ = run(
        capsys, "apply", "phi(2)", "finsupp:[0,0,0,0,0,0,0,1]", "--depth", "16"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0,0,0,0,0,0,0,1,9,35,77,105,91,49,15,2"
    assert lines[1] == "class: inverse invariant of the second kind"


def test_parse_pipeline_tokens():
    pipe = parse_pipeline("phi(2);t42b")
    assert len(pipe.steps) == 3
    with pytest.raises(ValueError):
        parse_pipeline("phi(0)")
    with pytest.raises(ValueError):
        parse_pipeline("warp(2)")
    with pytest.raises(ValueError):
        parse_pipeline("t42a;;t42b")


def test_matrix_displays(capsys):
    code, out, _ = run(capsys, "matrix", "N", "--rows", "4", "--cols", "8")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert rows[3] == ["0", "0", "0", "1", "-2", "3", "-4", "5"]
    code, out, _ = run(capsys, "matrix", "PTdown", "--rows", "5", "--cols", "5", "--format", "csv")
    assert out.splitlines()[4] == "0,0,1,3,1"
    code, out, _ = run(capsys, "matrix", "J:2", "--rows", "3", "--cols", "3", "--format", "csv")
    assert out.splitlines()[0] == "2,1,0"
    code, _, err = run(capsys, "matrix", "Zorg")
    assert code == 2 and "unknown matrix" in err


def test_matrix_refuses_a_block_past_the_entry_cap_before_truncating(capsys, monkeypatch):
    blocks = []

    def recorded(op, m, n):
        blocks.append((m, n))
        return DenseMat.identity(1)

    monkeypatch.setattr(cli, "truncate", recorded)
    for rows, cols in ((4096, 4096), (2 ** 24, 1), (1000000, 3)):  # at the cap and below it
        assert run(capsys, "matrix", "P", "--rows", str(rows), "--cols", str(cols))[0] == 0
    code, out, err = run(capsys, "matrix", "P", "--rows", "4096", "--cols", "4097")
    assert (code, out) == (2, "")
    assert err == "error: a 4096 x 4097 block has 16781312 entries, past the cap of 16777216\n"
    assert blocks == [(4096, 4096), (2 ** 24, 1), (1000000, 3)]


def test_matrix_json_round_trip(capsys):
    code, out, _ = run(capsys, "matrix", "M", "--rows", "8", "--cols", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entries = [[scalar_from_json(e) for e in row] for row in payload["entries"]]
    assert entries[4] == [0, 0, 0, 0, 1, 2, 3, 1]


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "similarity", "--depth", "16")
    assert code == 0
    assert "PASS NM-identity" in out
    assert "PASS block-diag" in out
    assert "PASS stabilization" in out


def test_verify_all_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "all", "--depth", "8")
    assert code == 0
    assert out.splitlines()[-1] == "14/14 checks passed"


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "inversion", "--depth", "16", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    names = {r["name"] for r in payload["results"]}
    assert {"pd-involution", "pascal-inverse", "ptd-involution"} <= names
    for r in payload["results"]:
        assert set(r) == {"name", "passed", "depth", "elapsed_ms", "detail"}
        assert r["detail"] == ""


def test_verify_fail_line_names_the_failing_case(capsys, monkeypatch):
    from pascalinv import checks

    def third_case_fails(cfg):
        yield from (True, True, False)

    monkeypatch.setitem(checks.SUITES, "eigen", {"probe": third_case_fails})
    code, out, _ = run(capsys, "verify", "eigen", "--depth", "8")
    assert code == 1
    fail, total = out.splitlines()
    assert fail.startswith("FAIL probe (depth=8, ")
    assert fail.endswith("ms): case 2")
    assert total == "0/1 checks passed"


def test_verify_json_names_the_failing_case(capsys, monkeypatch):
    from pascalinv import checks

    def passes(cfg):
        yield True

    def second_case_fails(cfg):
        yield from (True, False, True)

    monkeypatch.setitem(checks.SUITES, "eigen", {"ok": passes, "probe": second_case_fails})
    code, out, _ = run(capsys, "verify", "eigen", "--depth", "8", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    ok, probe = payload["results"]
    assert (ok["name"], ok["passed"], ok["detail"]) == ("ok", True, "")
    assert (probe["name"], probe["passed"], probe["detail"]) == ("probe", False, "case 1")


def test_table1_rows(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("B: 1,-1/2,1/6,0,-1/30")
    assert lines[0].endswith("-691/2730")
    assert lines[1].startswith("DB: 1,1/2,1/6")
    assert lines[2] == "K: 0,1/2,1/2,1/3,1/6,1/15,1/30,1/35,1/70,-1/105,-1/210,41/1155,41/2310"


def test_gen_deterministic(capsys):
    _, first, _ = run(capsys, "gen", "bernoulli", "--depth", "13", "--format", "json")
    _, second, _ = run(capsys, "gen", "bernoulli", "--depth", "13", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert scalar_from_json(payload["terms"][12]) == Fraction(-691, 2730)


def test_depth_validation(capsys):
    code, _, err = run(capsys, "gen", "fib", "--depth", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("matrix", "P", "--rows", "0"), "--rows and --cols must be >= 1"),
        (("gen", "geom:(1,sqrt2)+(1,sqrt3)"), "cannot mix Q(√2) with Q(√3)"),
        (("check", "geom:(1,sqrt2)+(1,sqrt3)", "--kind", "first"), "cannot mix"),
        (("check", "geom:(sqrt2,1/2)+(sqrt3,1/3)", "--kind", "first"), "cannot mix"),
        (("check", "finsupp:[sqrt2,sqrt3]", "--kind", "first"), "cannot mix"),
        (("matrix", "Jinv:0"), "Jinv parameter must be nonzero"),
        (("matrix", "Jinv:1/0"), "zero denominator"),
        (("gen", "finsupp:[1/0]"), "zero denominator"),
    ],
)
def test_invalid_input_is_a_clean_parse_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ") and message in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err and "Fraction(" not in err


@pytest.mark.parametrize("literal", ["finsupp:[1,,2]", "finsupp:[,1]", "finsupp:[1,]", "finsupp:[ , ]"])
def test_finsupp_empty_item_is_a_parse_error(capsys, literal):
    code, out, err = run(capsys, "gen", literal, "--depth", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: empty item")


def test_finsupp_empty_brackets_are_the_zero_sequence(capsys):
    code, out, _ = run(capsys, "gen", "finsupp:[]", "--depth", "3")
    assert code == 0
    assert out.strip() == "0,0,0"


@pytest.mark.parametrize("depth", ["2", "3", "4", "5"])
def test_verify_all_passes_at_small_depths(capsys, depth):
    code, out, _ = run(capsys, "verify", "all", "--depth", depth)
    assert code == 0
    assert out.splitlines()[-1] == "14/14 checks passed"


def test_oeis_errors_map_to_exit_codes(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("PASCALINV_OEIS_FIXTURES", raising=False)
    cache = str(tmp_path)
    code, _, err = run(capsys, "oeis", "kseq", "--offline", "--cache-dir", cache)
    assert code == 2 and err.startswith("error: non-integer term")
    code, _, err = run(capsys, "oeis", "lucas", "--offline", "--cache-dir", cache)
    assert code == 1 and err.startswith("error: no cached response")


def test_gen_prints_terms_past_the_int_str_digit_limit(capsys):
    # 2**14399 has 4335 digits, past the default int -> str limit of Python 3.11
    code, out, err = run(capsys, "gen", "geom:(1,2)", "--depth", "14400")
    assert code == 0, err
    last = out.strip().rsplit(",", 1)[1]
    assert len(last) == 4335 and last.isdigit()
    assert int(last[-18:]) == 2 ** 14399 % 10 ** 18
    assert int(last[:18]) == 2 ** 14399 // 10 ** (4335 - 18)


@pytest.mark.parametrize("stage, first_terms", [("t42a", "1,3,3,3"), ("t42d", "1,1,1,1")])
def test_apply_runs_a_linear_stage_on_a_finsupp_past_the_support_cap(capsys, stage, first_terms):
    literal = "finsupp:[" + ",".join(["1"] * 9000) + "]"
    code, out, err = run(capsys, "apply", stage, literal, "--depth", "4", "--format", "csv")
    assert code == 0, err
    assert out.strip() == first_terms


_ONE_TERM_QUADRATIC = ["[sqrt5]", "[1+sqrt5]", "[sqrt2]", "[1/2sqrt5,0,0]", "[0,sqrt5]",
                       "[sqrt5,-sqrt5]"]


@pytest.mark.parametrize("pipeline", ["t42a", "t42b", "t42c", "t42d", "t42b;t42b"] + [
    f"{name}({n})" for name in ("phi", "phitilde", "psi", "psitilde") for n in (1, 2, 3)])
@pytest.mark.parametrize("literal", _ONE_TERM_QUADRATIC)
def test_apply_on_finsupps_left_with_no_irrational_term_ends_in_an_exit_code(
        capsys, literal, pipeline):
    """A stage whose image of a Q(√d) FinSupp keeps no irrational term (as
    the shift inside t42b on [sqrt5]) still ends in a documented code."""
    code, out, err = run(capsys, "apply", pipeline, "finsupp:" + literal, "--depth", "4")
    assert 0 <= code <= 5 and "Traceback" not in out + err, (code, err)

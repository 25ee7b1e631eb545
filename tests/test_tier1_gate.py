import importlib.util
from pathlib import Path

GATE = Path(__file__).resolve().parent.parent / "tools" / "tier1_gate.py"
spec = importlib.util.spec_from_file_location("tier1_gate", GATE)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)

JUNIT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest">
<testcase classname="tests.test_acceptance" name="test_criterion_09_pipeline_examples">
<failure message="AssertionError">wanted 56</failure></testcase>
<testcase classname="tests.test_scalars" name="test_ok" />
<testcase classname="tests.test_oeis" name="test_live"><skipped message="offline" /></testcase>
<testcase classname="tests.test_cli" name="test_broken"><error message="fixture" /></testcase>
</testsuite></testsuites>
"""


def test_outcomes_read_the_junit_report(tmp_path):
    report = tmp_path / "tier1.xml"
    report.write_text(JUNIT)
    assert gate.outcomes(str(report)) == {
        gate.EXPECTED_FAILURE: "failed",
        "tests.test_scalars::test_ok": "passed",
        "tests.test_oeis::test_live": "skipped",
        "tests.test_cli::test_broken": "error",
    }


def test_gate_accepts_only_the_known_failure():
    base = {gate.EXPECTED_FAILURE: "failed", "tests.test_scalars::test_ok": "passed"}
    assert gate.verdict(base) == []
    assert gate.verdict({**base, "tests.test_oeis::test_live": "skipped"}) == []
    assert gate.verdict({**base, "tests.test_cli::test_x": "error"}) == [
        "tests.test_cli::test_x error"
    ]
    assert gate.verdict({**base, "tests.test_cli::test_y": "failed"}) == [
        "tests.test_cli::test_y failed"
    ]
    assert len(gate.verdict({**base, gate.EXPECTED_FAILURE: "passed"})) == 1
    assert len(gate.verdict({"tests.test_scalars::test_ok": "passed"})) == 1

"""Tier-1 gate: run the whole test suite and accept exactly one known failure.

Acceptance criterion 09 (``test_criterion_09_pipeline_examples``) fails by
design: the paper's worked example for phi(2) on e_7 is inconsistent (see the
README).  The gate runs the tier-1 command with a JUnit report and exits 0 only
when that test is the sole failure.  It exits 1 when criterion 09 passes or is
missing, when any other test fails or errors (collection errors included), or
when pytest could not run the suite.  It skips, xfails and deselects nothing.

Run from the repository root:

    python3 tools/tier1_gate.py
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_FAILURE = "tests.test_acceptance::test_criterion_09_pipeline_examples"


def outcomes(junit_xml: str) -> dict:
    """Map each test id (``module::name``, as pytest prints it) to its outcome."""
    out = {}
    for case in ET.parse(junit_xml).getroot().iter("testcase"):
        tid = f"{case.get('classname')}::{case.get('name')}"
        tags = {child.tag for child in case}
        if "failure" in tags:
            out[tid] = "failed"
        elif "error" in tags:
            out[tid] = "error"
        else:
            out[tid] = "skipped" if "skipped" in tags else "passed"
    return out


def verdict(results: dict) -> list:
    """Problems that fail the gate; an empty list means the gate passes."""
    problems = []
    if results.get(EXPECTED_FAILURE) != "failed":
        problems.append(
            f"{EXPECTED_FAILURE} is {results.get(EXPECTED_FAILURE, 'missing')}, "
            "expected to fail by design"
        )
    for tid, status in sorted(results.items()):
        if tid != EXPECTED_FAILURE and status in ("failed", "error"):
            problems.append(f"{tid} {status}")
    return problems


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             f"--junitxml={report}"],
            cwd=ROOT, env=env,
        )
        if proc.returncode not in (0, 1) or not os.path.exists(report):
            print(f"tier1 gate: pytest exited {proc.returncode}", file=sys.stderr)
            return 1
        results = outcomes(report)
    problems = verdict(results)
    for line in problems:
        print(f"tier1 gate: {line}", file=sys.stderr)
    counts = {s: sum(1 for v in results.values() if v == s) for s in set(results.values())}
    print(f"tier1 gate: {'FAIL' if problems else 'ok'} {dict(sorted(counts.items()))}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

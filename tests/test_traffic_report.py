import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "traffic_report.py"


def _report() -> tuple:
    """(function -> workloads that enter it, functions listed as entered by
    none, function -> sources of its lines listed as run by no workload)."""
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         check=True).stdout
    table, idle, cold, _ = out.split("\n\n")
    rows = dict(line.split(" | ") for line in table.splitlines()[1:])
    idle = [line.strip().removesuffix(" (import only)") for line in idle.splitlines()[1:]]
    unrun: dict = {}
    for line in cold.splitlines()[1:]:  # "  module.function:line  source"
        name, _, rest = line.strip().partition(":")
        unrun.setdefault(name, []).append(rest.partition("  ")[2])
    return {name: workloads.split() for name, workloads in rows.items()}, idle, unrun


def test_traffic_report_names_the_workloads_that_enter_each_function():
    rows, idle, unrun = _report()
    # the Q(√d) row rule over integer halves serves no workload; the Q(√d)
    # geometric stepping serves binet-first
    assert rows["rowrules.field_rows"] == []
    assert "rowrules.field_rows" in idle
    assert "binet-first" in rows["rowrules._field_steps"]
    assert rows["rowrules._geometric_sums"][:2] == ["binet-first", "rational-first"]
    assert set(idle) <= set(rows)
    assert not any(workloads for name, workloads in rows.items() if name in idle)
    # the lines no workload runs, listed only in functions some workload
    # enters: of the denominators that the workloads' Riordan pairs divide by,
    # only L's 1 + z takes _over's general recurrence, in cli-commands'
    # `matrix L --rows 1`, whose one row enters the loop but not its body;
    # the packed PD rows serve rational-first
    assert not set(unrun) & set(idle) and set(unrun) <= set(rows)
    assert "for k, c in enumerate(tail[:i], 1):" not in unrun["riordan._over"]
    assert "x -= c * out[i - k]" in unrun["riordan._over"]
    assert "return _packed_pd_rows(row, w)" not in unrun.get("rowrules._pd_rows", [])
    assert "rational-first" in rows["rowrules._pd_rows"]

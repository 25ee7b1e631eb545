import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "traffic_report.py"


def _rows() -> tuple:
    """(function -> workloads that enter it, functions listed as entered by none)."""
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         check=True).stdout
    table, _, rest = out.partition("\n\nentered by no workload")
    rows = dict(line.split(" | ") for line in table.splitlines()[1:])
    idle = [line.strip().removesuffix(" (import only)")
            for line in rest.partition("\n\n")[0].splitlines()[1:]]
    return {name: workloads.split() for name, workloads in rows.items()}, idle


def test_traffic_report_names_the_workloads_that_enter_each_function():
    rows, idle = _rows()
    # the Q(√d) row rule over integer halves serves no workload; the Q(√d)
    # geometric stepping serves binet-first
    assert rows["rowrules.field_rows"] == []
    assert "rowrules.field_rows" in idle
    assert "binet-first" in rows["rowrules._field_steps"]
    assert rows["rowrules._geometric_sums"][:2] == ["binet-first", "rational-first"]
    assert set(idle) <= set(rows)
    assert not any(workloads for name, workloads in rows.items() if name in idle)

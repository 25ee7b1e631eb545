"""The benchmark's own self-checks.  Run from the repository root:

    python3 perfbench/selfcheck.py

It checks that the reference oracles reproduce Table 1 of the paper, that a
seed always gives the same operation list, that two traced runs of one seed
report identical counts, and that every metric named in BENCHMARK.json is
emitted by both kinds of run.  It exits 1 on the first problem.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import ops
import refs

RUN = Path(__file__).resolve().parent / "run.py"
# Per-layer metrics that are counts, or ratios of counts, must repeat exactly.
EXACT_UNITS = ("count",)
EXACT_RATIOS = ("sequences.term_reuse_ratio", "operators.cache_hit_ratio")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def main() -> int:
    check(refs.bernoulli(13) == list(refs.TABLE1_B), "Akiyama-Tanigawa B_0..B_12 match Table 1")
    check(refs.k_numbers(13) == list(refs.TABLE1_K), "K_0..K_12 from the definition match Table 1")
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = {key: sorted(m["name"] for m in spec[key]) for key in ("end_to_end", "per_layer")}
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(ops.WORKLOADS), "BENCHMARK.json lists every workload")
    for workload in ops.WORKLOADS:
        first = [ops.deck(workload, 7, k) for k in range(4)]
        again = [ops.deck(workload, 7, k) for k in range(4)]
        other = [ops.deck(workload, 8, k) for k in range(4)]
        check(first == again, f"{workload}: one seed gives one operation list")
        check(first != other, f"{workload}: another seed gives another list")

        e2e = run(workload, 7, 2, 0)
        check(sorted(e2e["metrics"]) == names["end_to_end"], f"{workload}: every end-to-end metric emitted")
        check(e2e["correct"], f"{workload}: outputs match the references")
        a, b = run(workload, 7, 2, 1), run(workload, 7, 2, 1)
        check(sorted(a["metrics"]) == names["per_layer"], f"{workload}: every per-layer metric emitted")
        check(a["correct"] and b["correct"], f"{workload}: traced outputs match the references")
        exact = [
            name for name, m in a["metrics"].items()
            if m["unit"] in EXACT_UNITS or name in EXACT_RATIOS
        ]
        differ = [name for name in exact if a["metrics"][name]["value"] != b["metrics"][name]["value"]]
        check(not differ, f"{workload}: {len(exact)} traced counts repeat exactly {differ or ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

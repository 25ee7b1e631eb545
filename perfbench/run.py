"""pascalinv benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload binet-first --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh child process with ``src`` on PYTHONPATH; this
process never imports pascalinv.  It builds the same seeded operation list
as the child, checks every output against references computed by
``refs`` (outside the timed window), and prints informational JSON lines
followed by one result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from the
closed-loop timed pass; ``--trace 1`` reports the per-layer metrics from a
traced pass and an untraced pass over the same fixed operations.  Every
reported time is scaled to a reference machine speed with the calibration
kernel of ``calib.py``; the raw values are in the ``info`` line.  RECORDS.md
describes each metric and workload.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import expect
import ops
import refs

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PROBES = 7  # fresh processes per set-up or start-up figure; the median is reported
TAIL_BEYOND = 10  # the tail percentile leaves this many samples beyond it
PASS_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def worker(*args, timeout=PASS_TIMEOUT_S) -> dict:
    """Run one worker pass; its last stdout line is the result, the lines before
    it the operations' outputs (in result["outputs"])."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *map(str, args)],
        env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    *outputs, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    result["outputs"] = [json.loads(line) for line in outputs]
    return result


def scale(cal: list, ref: float = calib.REF_S) -> float:
    """Factor that takes a time measured next to these kernel samples to reference speed."""
    return ref / statistics.mean(cal)


def process_walls(code: str, times: int) -> list:
    """Wall seconds, at reference speed, of fresh interpreters running ``code``."""
    cal, walls = [calib.spawn_sample()], []
    for _ in range(times):
        t0 = time.perf_counter()
        status, _, _ = calib.run_child([sys.executable, "-c", code], env=child_env())
        walls.append(time.perf_counter() - t0)
        if status != 0:
            raise RuntimeError(f"python -c {code!r} exited {status}")
        cal.append(calib.spawn_sample())
    return per_op_scale(walls, cal, calib.SPAWN_REF_S)


# The child times its own import of the CLI, then samples the kernel.
IMPORT_CLI = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pascalinv.cli; t = time.perf_counter() - t; import calib; "
    "print(t, *(calib.sample() for _ in range(5)))"
)


def import_time() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CLI, str(HERE)], env=child_env(), capture_output=True,
        text=True, check=True, timeout=60,
    )
    t, *cal = map(float, proc.stdout.split())
    return t * scale(cal)


def provenance(workload: str, seed: int) -> dict:
    head = Path(".git") / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = Path(".git") / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def judge_all(deck_ops: list, outputs: list, witnesses=()) -> dict:
    """Sort the failed operations into known-defect hits and unexpected failures.
    ``witnesses[k]``, if given, is the sampled objects of suite op ``k``."""
    if len(outputs) != len(deck_ops):
        raise RuntimeError(f"{len(outputs)} outputs for {len(deck_ops)} operations")
    failures, defects = [], []
    for k, (op, out) in enumerate(zip(deck_ops, outputs)):
        if op[0] == "cli" and op[1] == "defect" and expect.defect_hit(op, out):
            defects.append({"defect": ops.DEFECTS[op[3]], "argv": list(op[2])})
            continue
        reason = expect.judge(op, out)
        if reason is None and k < len(witnesses):
            reason = expect.judge_witnesses(op, witnesses[k])
        if reason is not None:
            failures.append({"op": repr(op)[:300], "got": reason[:500]})
    return {"unexpected": failures, "known_defects": defects}


def ops_of(workload: str, seed: int, decks: int) -> list:
    return [op for k in range(decks) for op in ops.deck(workload, seed, k)]


def tail(values: list) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ranked = sorted(values)
    n = len(ranked)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ranked[k], 100.0 * (k + 1) / n


def per_op_scale(values: list, cal: list, ref: float) -> list:
    """Scale each op by the kernel samples taken just before and just after it."""
    return [v * ref * 2 / (cal[i] + cal[i + 1]) for i, v in enumerate(values)]


def e2e_metrics(wall: list, cpu: list) -> dict:
    tail_s, _ = tail(wall)
    return {
        "ops_per_s": len(wall) / sum(wall),
        "op_p50_ms": statistics.median(wall) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "cpu_per_op_ms": statistics.median(cpu) * 1e3,
    }


def end_to_end(workload: str, seed: int, seconds: float):
    if workload == "cli-commands":
        setups = process_walls("import pascalinv.cli", PROBES)
    else:
        setups = []
        for _ in range(PROBES):
            probe = worker("setup", workload, seed)
            setups.append(probe["setup_s"] * scale(probe["cal_s"]))
    res = worker("timed", workload, seed, seconds, timeout=PASS_TIMEOUT_S + seconds)
    wall, cpu, cal, ref = res["wall_s"], res["cpu_s"], res["cal_s"], res["cal_ref_s"]
    verdicts = judge_all(ops_of(workload, seed, res["decks"]), res["outputs"], res.get("witnesses", ()))
    n = len(wall)
    failed = len(verdicts["unexpected"]) + len(verdicts["known_defects"])
    scaled = e2e_metrics(per_op_scale(wall, cal, ref), per_op_scale(cpu, cal, ref))
    info = {
        "decks": res["decks"],
        "op_tail_ms": {"percentile": tail(wall)[1], "samples": n, "beyond": min(TAIL_BEYOND, n - 1)},
        "setup_s_samples": setups,
        "speed_factor": scale(cal, ref),
        "steal_s": sum(res["steal_s"]),
        "raw": e2e_metrics(wall, cpu),
        **verdicts,
    }
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "cpu_per_op_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    metrics["ok_ratio"] = ((n - failed) / n, "ratio")
    return n, failed, not verdicts["unexpected"], metrics, info


def per_layer(workload: str, seed: int):
    plain = worker("fixed", workload, seed, 0)
    traced = worker("fixed", workload, seed, 1)
    deck = ops.deck(workload, seed, 0)
    verdicts = [judge_all(deck, p["outputs"], p.get("witnesses", ())) for p in (plain, traced)]
    unexpected = [f for v in verdicts for f in v["unexpected"]]
    failed = sum(len(v["unexpected"]) + len(v["known_defects"]) for v in verdicts)
    f_plain, f_traced = scale(plain["cal_s"]), scale(traced["cal_s"])
    summary = traced["trace"]
    metrics = {}
    for name, value in summary["metrics"].items():
        unit = _unit(name)
        metrics[name] = (value * f_traced if unit == "s" else value, unit)
    micro = plain["scalar_ns"]
    f_micro = scale(micro["cal_s"])
    metrics.update({name: (value * f_micro, "ns") for name, value in micro["ns"].items()})
    elapsed = {name: [] for name in ops.CHECK_NAMES}
    if workload == "verify-suite":
        for out in plain["outputs"]:
            for name, _, _, ms in out[1]:
                elapsed[name].append(ms * f_plain)
    for name, samples in elapsed.items():
        metrics[f"checks.{name}_ms"] = (statistics.median(samples) if samples else 0.0, "ms")
    cli = workload == "cli-commands"
    metrics["cli.interpreter_s"] = (statistics.median(process_walls("pass", PROBES)), "s")
    metrics["cli.import_s"] = (statistics.median(import_time() for _ in range(PROBES)), "s")
    metrics["cli.main_s"] = (statistics.median(plain["wall_s"]) * f_plain if cli else 0.0, "s")
    metrics["cli.tracebacks"] = (
        sum("Traceback" in out[2] for out in traced["outputs"]) if cli else 0, "count"
    )
    total = sum(traced["wall_s"])
    metrics["trace.overhead_ratio"] = (sum(plain["wall_s"]) * f_plain / (total * f_traced), "ratio")
    info = {
        "traced_ops": len(deck),
        "spans": summary["spans"],
        "self_time_share": {k: v / total for k, v in summary["layer_self_s"].items()},
        "speed_factor": {"plain": f_plain, "traced": f_traced, "microbench": f_micro},
        "unexpected": unexpected,
    }
    return 2 * len(deck), failed, not unexpected, metrics, info


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/pascalinv/__init__.py", "tests/fixtures", "BENCHMARK.json"):
        if not Path(needed).exists():
            return fail(f"{needed} not found; run from the root of a pascalinv checkout")
    if refs.bernoulli(13) != list(refs.TABLE1_B) or refs.k_numbers(13) != list(refs.TABLE1_K):
        return fail("reference oracles do not reproduce Table 1")
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    print(json.dumps({"provenance": provenance(args.workload, args.seed)}))
    if args.trace:
        attempted, failed, correct, metrics, info = per_layer(args.workload, args.seed)
    else:
        attempted, failed, correct, metrics, info = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps({"info": info}))
    if sorted(metrics) != sorted(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        return fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

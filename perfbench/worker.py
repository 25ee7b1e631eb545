"""One pass of one workload, in a fresh process that imports pascalinv.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py setup  WORKLOAD SEED
    python3 perfbench/worker.py timed  WORKLOAD SEED SECONDS
    python3 perfbench/worker.py fixed  WORKLOAD SEED TRACE

``setup`` times ``import pascalinv`` plus building the first deck's inputs.
``timed`` is the closed loop: it runs whole decks, one operation at a time,
until the operations have taken SECONDS at reference speed (see calib.py),
so a run does about the same work on a fast and a slow machine; it also
stops after RAW_CAP times SECONDS of wall time.  ``fixed`` runs deck 0 once,
traced (TRACE=1) or not, so that two traced runs of one seed do the same
work.  The pass prints each operation's output as one JSON line as it goes,
then one JSON object with its measurements; the parent checks the outputs
against its references.  Whatever the parent needs for that check beyond the
operation's own result (the prefix a first-kind check judged, a sample of the
objects verify-suite compares) is computed outside the operation timers.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import calib
import ops

OUT_DIR = calib.OUT_DIR
CAL_AFTER_SETUP = 5
RAW_CAP = 2.0


PEAK_FILE = OUT_DIR / "cli-peak-kb"
CHILD_PEAK_DIR = Path(__file__).resolve().parent / "childpeak"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PASCALINV_OEIS_FIXTURES"] = os.path.join("tests", "fixtures")
    env["PASCALINV_OEIS_CACHE"] = str(OUT_DIR / "oeis-cache")
    return env


# --- inputs, built through the public API -----------------------------------


def build(pv, op):
    kind = op[0]
    if kind == "binet":
        _, a, b, image, _ = op
        pairs = tuple((a * c, r) for c, r in pv.lucas().pairs)
        pairs += tuple((b * c, r) for c, r in pv.fibonacci().pairs)
        seq = pv.ExpComb(pairs)
        return seq if image == "id" else getattr(pv, image)(seq)
    if kind == "family":
        return _family(pv, op[1])
    if kind == "geom":
        return pv.ExpComb(tuple((Fraction(c), Fraction(r)) for c, r in op[1]))
    if kind == "basis":
        return pv.basis_vector(pv.EigenSpaceId("PD", op[1]), op[2])
    if kind == "powcol":
        return pv.power_column(op[1], op[2], op[3])
    if kind in ("t42c", "t42d"):
        return getattr(pv, kind)(_family(pv, op[1]))
    if kind == "suite":
        from pascalinv.checks import RunConfig

        return RunConfig(depth=op[2], seed=op[3])
    return op[2]  # cli: the argv


def _family(pv, name):
    return {"bernoulli": pv.Bernoulli, "altbernoulli": pv.AltBernoulli, "kseq": pv.KSeq}[name]()


# --- one operation ----------------------------------------------------------


def run_library_op(pv, op, arg):
    """Returns the op's output as plain JSON data, or ["exc", type, message]."""
    try:
        if op[0] == "suite":
            from pascalinv.checks import run_suite

            results = run_suite(op[1], arg)
            return ["ok", [[r.name, r.passed, r.depth, r.elapsed_ms] for r in results]]
        report = pv.check_invariance(arg, "first", op[-1])
        return ["ok", report.verdict, report.first_failure, report.depth, report.kind]
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        return ["exc", type(exc).__name__, str(exc)]


def plain(x):
    """A pascalinv scalar as JSON data: "p/q" if rational, else [a, b, d] for a + b*sqrt(d)."""
    if isinstance(x, (int, Fraction)):
        return str(x)
    return [str(x.a), str(x.b), x.d]


def emit(op, arg, out, pv) -> None:
    """Write one operation's output; a first-kind check also sends the prefix it judged."""
    if op[0] not in ("suite", "cli") and out[0] == "ok":
        out.append([plain(t) for t in pv.prefix(arg, op[-1])])
    sys.stdout.write(json.dumps(out) + "\n")


def suite_witnesses(pv, op) -> dict:
    """Objects of the kind run_suite(op) compares, as plain data, built through
    the public API at the op's depth, for the parent to check against refs."""
    _, suite, d, seed = op

    def mat(m):
        return [[plain(e) for e in row] for row in m.data]

    def seq(s):
        return [plain(t) for t in pv.prefix(s, d)]

    if suite == "inversion":
        p, dm = pv.make_operator("P"), pv.make_operator("D")
        dpd = pv.compose(dm, pv.compose(p, dm))
        x = pv.FinSupp(tuple(Fraction(t) for t in ops.witness_terms(seed)))
        return {
            "PD": mat(pv.truncate(pv.pd(), d, d)),
            "PD^2": mat(pv.truncate(pv.op_power(pv.pd(), 2), d, d)),
            "DPD": mat(pv.truncate(dpd, d, d)),
            "P.DPD": mat(pv.truncate(pv.compose(p, dpd), d, d)),
            "PTD x": seq(pv.apply_upper(pv.ptd(), x)),
            "PD x": [plain(t) for t in pv.apply_finite(pv.pd(), x, d)],
        }
    if suite == "similarity":
        n_op, m_op, dm = pv.make_N(), pv.make_M(), pv.make_operator("D")
        s = 2 * min(8, d // 2)
        dmtd = pv.compose(dm, pv.compose(pv.transpose(m_op), dm))
        dntd = pv.compose(dm, pv.compose(pv.transpose(n_op), dm))
        return {
            "N.M": mat(pv.truncate(pv.compose(n_op, m_op), d, d)),
            "M.N": mat(pv.truncate(pv.compose(m_op, n_op), d, d)),
            "N.PTD.M": mat(pv.truncate(pv.compose(pv.compose(n_op, pv.ptd()), m_op), s, s)),
            "DMtD.PD.DNtD": mat(pv.truncate(pv.compose(pv.compose(dmtd, pv.pd()), dntd), s, s)),
        }
    if suite == "eigen":
        return {
            f"{space} {sign:+d} {j}": seq(pv.basis_vector(pv.EigenSpaceId(space, sign), j))
            for space in ("PD", "PTD") for sign in (1, -1) for j in range(9)
        }
    out = {
        "B": [plain(pv.bernoulli_number(n)) for n in range(d)],
        "K": [plain(pv.k_number(n)) for n in range(d)],
        "t42c(AltBernoulli)": seq(pv.t42c(pv.AltBernoulli())),
        "t42d(KSeq)": seq(pv.t42d(pv.KSeq())),
        "t42c(lucas)": seq(pv.t42c(pv.lucas())),
    }
    for base in ("P+D", "P-D"):
        for n in (1, 2):
            for j in range(5):
                out[f"{base}^{n} col {j}"] = seq(pv.power_column(base, n, j))
    return out


def run_cli_subprocess(argv):
    """[exit code, stdout, stderr], and the command's peak memory in MB (see childpeak)."""
    env = cli_env()
    env["PYTHONPATH"] = os.pathsep.join(("src", str(CHILD_PEAK_DIR)))
    env["PERFBENCH_PEAK_FILE"] = str(PEAK_FILE)
    PEAK_FILE.unlink(missing_ok=True)
    code, out, err = calib.run_child([sys.executable, "-m", "pascalinv", *argv], env=env, capture=True)
    peak = int(PEAK_FILE.read_text()) / 1024.0 if PEAK_FILE.exists() else 0.0
    return [code, out, err], peak


def run_cli_in_process(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - what the interpreter would print
            traceback.print_exc()
            code = 1
    return [code, out.getvalue(), err.getvalue()]


def _steal_s() -> float:
    """Seconds the hypervisor has kept this machine's vCPUs from running (0 if unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _own_peak_mb() -> float:
    """Peak RSS less file-backed pages, whose residency follows the host's page cache."""
    try:
        with open("/proc/self/status") as fh:
            fields = dict(line.split(":", 1) for line in fh)
        return (int(fields["VmHWM"].split()[0]) - int(fields["RssFile"].split()[0])) / 1024.0
    except (OSError, KeyError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# --- passes -----------------------------------------------------------------


def setup_pass(workload, seed):
    t0 = time.perf_counter()
    import pascalinv as pv

    for op in ops.deck(workload, seed, 0):
        build(pv, op)
    setup = time.perf_counter() - t0
    return {"setup_s": setup, "cal_s": [calib.sample() for _ in range(CAL_AFTER_SETUP)]}


def timed_pass(workload, seed, seconds):
    import pascalinv as pv

    cli = workload == "cli-commands"
    ref = calib.SPAWN_REF_S if cli else calib.REF_S
    sample = calib.spawn_sample if cli else calib.sample
    cmd_peak = []
    wall, cpu, steal, cal = [], [], [], [sample()]
    decks, scaled = 0, 0.0
    deadline = time.perf_counter() + RAW_CAP * seconds
    while scaled < seconds and time.perf_counter() < deadline:
        deck = ops.deck(workload, seed, decks)
        args = [build(pv, op) for op in deck]
        for op, arg in zip(deck, args):
            s0 = _steal_s()
            c0 = _children_cpu() if cli else time.process_time()
            t0 = time.perf_counter()
            if cli:
                out, peak = run_cli_subprocess(arg)
                cmd_peak.append(peak)
            else:
                out = run_library_op(pv, op, arg)
            t1 = time.perf_counter()
            c1 = _children_cpu() if cli else time.process_time()
            s1 = _steal_s()
            wall.append(t1 - t0)
            cpu.append(c1 - c0)
            steal.append(s1 - s0)
            cal.append(sample())
            scaled += wall[-1] * ref * 2 / (cal[-2] + cal[-1])
            emit(op, arg, out, pv)
        decks += 1
    peak = max(cmd_peak) if cli else _own_peak_mb()
    result = {
        "decks": decks,
        "wall_s": wall,
        "cpu_s": cpu,
        "steal_s": steal,
        "cal_s": cal,
        "cal_ref_s": ref,
        "peak_rss_mb": peak,
    }
    if workload == "verify-suite":
        result["witnesses"] = [suite_witnesses(pv, op) for op in ops.deck(workload, seed, 0)]
    return result


def fixed_pass(workload, seed, trace):
    import pascalinv as pv
    import pascalinv.cli  # both passes load every module the tracer wraps

    cli = workload == "cli-commands"
    if cli:
        os.environ.update(cli_env())
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    deck = ops.deck(workload, seed, 0)
    args = [build(pv, op) for op in deck]
    if tracer:
        tracer.reset()
    main = pascalinv.cli.main
    wall, outputs, cal = [], [], [calib.sample()]
    for k, (op, arg) in enumerate(zip(deck, args)):
        if tracer:
            tracer.begin_op(k)
        t0 = time.perf_counter()
        out = run_cli_in_process(main, arg) if cli else run_library_op(pv, op, arg)
        wall.append(time.perf_counter() - t0)
        outputs.append(out)
        cal.append(calib.sample())
    result = {"wall_s": wall, "cal_s": cal}
    if tracer:
        tracer.finish()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}.bin")
        result["trace"] = trace_summary(tracer)
    else:
        result["scalar_ns"] = scalar_microbench(pv)
    for op, arg, out in zip(deck, args, outputs):
        emit(op, arg, out, pv)
    if workload == "verify-suite":
        result["witnesses"] = [suite_witnesses(pv, op) for op in deck]
    return result


def trace_summary(t) -> dict:
    hits = sum(s[0] for s in t.caches)
    misses = sum(s[1] for s in t.caches)
    term_calls = t.get(t.calls, "sequences.term")
    layer_self = t.layer_self_s()
    return {
        "layer_self_s": layer_self,
        "spans": len(t.serial),
        "metrics": {
            "scalars.quadext_ops": t.scalar[0],
            "scalars.fraction_ops": t.scalar[1],
            "scalars.self_s": layer_self["scalars"],
            "sequences.term_calls": term_calls,
            "sequences.term_self_s": t.get(t.self_s, "sequences.term"),
            "sequences.term_reuse_ratio": term_calls / t.distinct_terms if t.distinct_terms else 0.0,
            "sequences.apply_finite_calls": t.get(t.calls, "sequences.apply_finite"),
            "sequences.apply_finite_self_s": t.get(t.self_s, "sequences.apply_finite"),
            "sequences.apply_upper_calls": t.get(t.calls, "sequences.apply_upper"),
            "sequences.apply_upper_self_s": t.get(t.self_s, "sequences.apply_upper"),
            "sequences.check_invariance_s": t.get(t.outer_s, "sequences.check_invariance"),
            "sequences.bernoulli_number_calls": t.get(t.calls, "sequences.bernoulli_number"),
            "sequences.bernoulli_number_self_s": t.get(t.self_s, "sequences.bernoulli_number"),
            "sequences.k_number_calls": t.get(t.calls, "sequences.k_number"),
            "sequences.k_number_self_s": t.get(t.self_s, "sequences.k_number"),
            "sequences.errors": t.errors["sequences"],
            "operators.entry_calls": t.get(t.calls, "operators.entry"),
            "operators.entry_self_s": t.get(t.self_s, "operators.entry"),
            "operators.truncate_calls": t.get(t.calls, "operators.truncate"),
            "operators.truncate_self_s": t.get(t.self_s, "operators.truncate"),
            "operators.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "operators.cache_entries": sum(s[2] for s in t.caches),
            "eigenstructure.verify_block_diag_s": t.get(t.outer_s, "eigenstructure.verify_block_diag"),
            "eigenstructure.basis_vector_calls": t.get(t.calls, "eigenstructure.basis_vector"),
            "eigenstructure.self_s": layer_self["eigenstructure"],
            "transforms.pipeline_apply_s": t.get(t.outer_s, "transforms.pipeline_apply"),
            "transforms.t42_calls": sum(t.get(t.calls, f"transforms.t42{c}") for c in "abcd"),
            "transforms.orthogonality_s": t.get(t.outer_s, "transforms.orthogonality"),
            "transforms.converse_check_s": t.get(t.outer_s, "transforms.converse_check"),
            "transforms.self_s": layer_self["transforms"],
            "checks.self_s": layer_self["checks"],
        },
    }


def scalar_microbench(pv, rounds=41) -> dict:
    """ns per call on powers of tau1 and tau2 up to binet-first's largest depth."""
    taus = [r for _, r in pv.lucas().pairs]
    top = max(ops.BINET_DEPTHS)
    powers = [t**k for t in taus for k in range(1, top + 1)]
    pairs = list(zip(powers, reversed(powers)))
    exps = [(t, k) for t in taus for k in range(1, top + 1)]
    fracs = [(x.a, y.b) for x, y in pairs]

    cal = []

    def per_call(body, n):
        samples = []
        for _ in range(rounds):
            t0 = time.perf_counter_ns()
            body()
            samples.append((time.perf_counter_ns() - t0) / n)
            cal.append(calib.sample())
        return statistics.median(samples)

    def mul():
        for x, y in pairs:
            x * y

    def power():
        for t, k in exps:
            t**k

    def inverse():
        for x in powers:
            x.inverse()

    def fmul():
        for x, y in fracs:
            x * y

    ns = {
        "scalars.quadext_mul_ns": per_call(mul, len(pairs)),
        "scalars.quadext_pow_ns": per_call(power, len(exps)),
        "scalars.quadext_inverse_ns": per_call(inverse, len(powers)),
        "scalars.fraction_mul_ns": per_call(fmul, len(fracs)),
    }
    return {"ns": ns, "cal_s": cal}


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = setup_pass(workload, seed)
    elif mode == "timed":
        result = timed_pass(workload, seed, float(argv[3]))
    else:
        result = fixed_pass(workload, seed, argv[3] == "1")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

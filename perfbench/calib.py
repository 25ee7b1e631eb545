"""Calibration kernels: scale measured times to a reference machine speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
within minutes.  Every pass runs a fixed kernel between its operations, and
a time measured there is multiplied by ``reference / kernel time`` taken
next to it, so a slower moment of the machine slows the kernel and the
operation alike and cancels.  In-process work is scaled by ``sample`` (exact
rational arithmetic, like pascalinv's); process-level work (CLI commands,
interpreter start-up) by ``spawn_sample``, a fresh interpreter importing the
standard-library modules the CLI needs, because process start-up slows
differently from arithmetic.  Neither kernel runs pascalinv code, so no
change to the library can move them.
"""
from __future__ import annotations

import fractions
import importlib.util
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# A private copy of the stdlib fractions module: the kernel does the same kind
# of work as pascalinv's exact arithmetic, while the tracer's counting
# wrappers on fractions.Fraction never touch it.
_spec = importlib.util.spec_from_file_location("_calib_fractions", fractions.__file__)
_fractions = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_fractions)
_Fraction = _fractions.Fraction

# Kernel seconds at the reference speed; constants, so reports stay comparable.
REF_S = 0.002
SPAWN_REF_S = 0.1
SPAWN_CODE = "import argparse, dataclasses, fractions, json, random, re"


def kernel():
    x = _Fraction(1, 3)
    for i in range(200):
        x = x * _Fraction(i + 2, i + 1) / _Fraction(i + 3, i + 2)
    return x


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0

CHILD_CPU_LIMIT_S = 60
OUT_DIR = Path(".perfbench_out")


def run_child(argv, env=None, capture=False):
    """Run a child to the end; return (exit code, stdout, stderr).

    The wait blocks: ``subprocess``'s timed waits poll in sleeps of up to
    50 ms, which would round every timing up to their steps.  A CPU-time
    limit bounds a runaway child instead of a timeout.  Captured output goes
    through unnamed temporary files in OUT_DIR.
    """
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        sinks = (out, err) if capture else (None, None)
        proc = subprocess.Popen(argv, env=env, stdout=sinks[0], stderr=sinks[1])
        try:
            resource.prlimit(proc.pid, resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))
        except ProcessLookupError:
            pass  # already gone
        proc.wait()
        texts = []
        for fh in (out, err):
            fh.seek(0)
            texts.append(fh.read().decode("utf-8", errors="replace"))
    return proc.returncode, texts[0], texts[1]


def spawn_sample() -> float:
    """Wall seconds a fresh interpreter takes to import what the CLI needs from the stdlib."""
    t0 = perf_counter()
    code, _, _ = run_child([sys.executable, "-c", SPAWN_CODE])
    wall = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"calibration interpreter exited {code}")
    return wall

"""Byte-for-byte CLI outputs of every command but ``verify``.

``tests/fixtures/cli_outputs.jsonl`` holds one JSON line per argv: the exit
code, stdout and stderr of ``pascalinv`` run in process.  The fixture pins the
outputs of ``check --kind second`` and of ``apply`` with every transform and
generator pipeline (length <= 6) on finitely supported and geometric
literals, rational and over Q(√5), in every format; of ``gen``,
``check --kind first``, ``matrix``, ``table1`` and ``oeis --offline`` in every
format each takes; and of one argv per error class the CLI maps to an exit
code, plus usage errors.  ``verify`` is left out: its lines carry timings.
Lookups read the offline fixtures from an empty cache, and a network fetch
raises ``NetworkError`` instead of leaving the machine.  To rewrite it from a
tree whose outputs are trusted:

    PYTHONPATH=src python tests/test_cli_outputs.py > tests/fixtures/cli_outputs.jsonl
"""
import contextlib
import io
import json
import os
import sys
import tempfile
from itertools import product
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE = FIXTURES / "cli_outputs.jsonl"

SEQUENCES = [
    "finsupp:[1,-1/2,0,3]",
    "finsupp:[1,sqrt5]",
    "finsupp:[1/2+1/2sqrt5,0,-3,2sqrt5,1/3]",
    "geom:(1,1/2+1/2sqrt5)+(1,1/2-1/2sqrt5)",
    "geom:(sqrt5,1/3)+(1/2,-1/2sqrt5)",
]
EVERY, NO_CSV = ("pretty", "json", "csv"), ("pretty", "json")
PIPELINES = ["t42a", "t42b"] + [
    f"{name}({n})" for name in ("phi", "phitilde", "psi", "psitilde") for n in range(1, 7)
]


def argvs():
    for seq, fmt, mode in product(SEQUENCES, NO_CSV, ("continued", "classical")):
        yield ["check", seq, "--kind", "second", "--depth", "8", "--format", fmt, "--mode", mode]
    for pipe, seq in product(PIPELINES, SEQUENCES):
        for fmt in EVERY:
            yield ["apply", pipe, seq, "--depth", "6", "--format", fmt]
        yield ["apply", pipe, seq, "--depth", "6", "--mode", "classical"]
    for seq, fmt in product(["lucas", SEQUENCES[0], SEQUENCES[3]], EVERY):
        yield ["gen", seq, "--depth", "8", "--format", fmt]
    for seq, fmt in product(["lucas", "kseq", "fib", SEQUENCES[0], SEQUENCES[4]], NO_CSV):
        yield ["check", seq, "--kind", "first", "--depth", "8", "--format", fmt]
    for name, fmt in product(["P", "N", "J:2", "Jinv:1/2"], EVERY):
        yield ["matrix", name, "--rows", "5", "--cols", "4", "--format", fmt]
    # the upper operators, at one entry and on wide and tall blocks
    for name, (rows, cols), fmt in product(["PT", "QT", "A", "PTD"], [(1, 1), (3, 9), (9, 3)], EVERY):
        yield ["matrix", name, "--rows", str(rows), "--cols", str(cols), "--format", fmt]
    for fmt in EVERY:
        yield ["table1", "--format", fmt]
    for seq, fmt in product(["lucas", "finsupp:[3,1,4]"], NO_CSV):  # a hit, a CacheMissError
        yield ["oeis", seq, "--offline", "--depth", "10", "--format", fmt]
    errors = [
        (["gen", "finsupp:[1,"], EVERY),  # LiteralError
        (["gen", "geom:(1,sqrt2)+(1,sqrt3)"], EVERY),  # LiteralError, mixed fields
        (["matrix", "J:x"], EVERY),  # LiteralError
        (["apply", "phi(0)", "lucas"], EVERY),  # LiteralError
        (["oeis", "lucas"], NO_CSV),  # NetworkError
        (["oeis", "bernoulli", "--offline"], NO_CSV),  # NonIntegerSequenceError
        (["apply", "phitilde(400)", "finsupp:[1,2]", "--depth", "4"], EVERY),  # SupportCapError
        (["check", "bernoulli", "--kind", "second"], NO_CSV),  # summation error
        (["gen", "fib", "--depth", "1"], EVERY),  # depth below 2
        (["gen", "fib", "--bogus"], EVERY),  # usage error
    ]
    for argv, formats in errors:
        for fmt in formats:
            yield argv + ["--format", fmt]


def _no_network(query):
    from pascalinv.oeis import NetworkError

    raise NetworkError("no network in this test")


def render(argv) -> str:
    from pascalinv import oeis
    from pascalinv.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved_env, saved_fetch = dict(os.environ), oeis._fetch
    with tempfile.TemporaryDirectory() as cache:
        # COLUMNS fixes the width argparse wraps its usage lines to
        os.environ.update(PASCALINV_OEIS_CACHE=cache, PASCALINV_OEIS_FIXTURES=str(FIXTURES),
                          COLUMNS="80")
        oeis._fetch = _no_network
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            oeis._fetch = saved_fetch
            os.environ.clear()
            os.environ.update(saved_env)
    return json.dumps({"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()},
                      ensure_ascii=False)


def test_cli_outputs_are_unchanged():
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    argv_list = list(argvs())
    assert [json.loads(line)["argv"] for line in lines] == argv_list
    assert [render(argv) for argv in argv_list] == lines


if __name__ == "__main__":
    sys.stdout.reconfigure(encoding="utf-8")
    for argv in argvs():
        print(render(argv))

"""Byte-for-byte CLI outputs of the second-kind and pipeline commands.

``tests/fixtures/cli_outputs.jsonl`` holds one JSON line per argv: the exit
code, stdout and stderr of ``pascalinv`` run in process.  The fixture pins the
outputs of ``check --kind second`` and of ``apply`` with every transform and
generator pipeline (length <= 6) on finitely supported and geometric
literals, rational and over Q(√5), in every format.  To rewrite it from a
tree whose outputs are trusted:

    PYTHONPATH=src python tests/test_cli_outputs.py > tests/fixtures/cli_outputs.jsonl
"""
import contextlib
import io
import json
import sys
from itertools import product
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "cli_outputs.jsonl"

SEQUENCES = [
    "finsupp:[1,-1/2,0,3]",
    "finsupp:[1,sqrt5]",
    "finsupp:[1/2+1/2sqrt5,0,-3,2sqrt5,1/3]",
    "geom:(1,1/2+1/2sqrt5)+(1,1/2-1/2sqrt5)",
    "geom:(sqrt5,1/3)+(1/2,-1/2sqrt5)",
]
PIPELINES = ["t42a", "t42b"] + [
    f"{name}({n})" for name in ("phi", "phitilde", "psi", "psitilde") for n in range(1, 7)
]


def argvs():
    for seq, fmt, mode in product(SEQUENCES, ("pretty", "json"), ("continued", "classical")):
        yield ["check", seq, "--kind", "second", "--depth", "8", "--format", fmt, "--mode", mode]
    for pipe, seq in product(PIPELINES, SEQUENCES):
        for fmt in ("pretty", "json", "csv"):
            yield ["apply", pipe, seq, "--depth", "6", "--format", fmt]
        yield ["apply", pipe, seq, "--depth", "6", "--mode", "classical"]


def render(argv) -> str:
    from pascalinv.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
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

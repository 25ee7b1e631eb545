"""The CLI contract: each subcommand takes only the options its handler reads,
any other flag is a usage error, and the README's CLI examples exit as
documented."""
import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from pascalinv.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]

FLAGS = {
    "gen": {"--depth", "--format"},
    "check": {"--kind", "--depth", "--mode", "--format"},
    "apply": {"--depth", "--mode", "--format"},
    "matrix": {"--rows", "--cols", "--format"},
    "verify": {"--depth", "--mode", "--format", "--seed"},
    "table1": {"--format"},
    "oeis": {"--depth", "--format", "--offline", "--cache-dir"},
}
# The options shared between subcommands, each with a value they accept.
SHARED = {"--depth": "4", "--mode": "classical", "--format": "json", "--seed": "3"}
# A valid argv of each subcommand that gives none of SHARED.
BASE = {
    "gen": ["gen", "fib"],
    "check": ["check", "lucas", "--kind", "first"],
    "apply": ["apply", "t42c", "lucas"],
    "matrix": ["matrix", "P"],
    "verify": ["verify", "inversion"],
    "table1": ["table1"],
    "oeis": ["oeis", "lucas", "--offline"],
}
REJECTED = [
    BASE[cmd] + [flag, value] for cmd in BASE for flag, value in SHARED.items() if flag not in FLAGS[cmd]
] + [BASE[cmd] + ["--format", "csv"] for cmd in ("check", "verify", "oeis")]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_each_subcommand_takes_exactly_the_options_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {s for action in p._actions for s in action.option_strings if s != "--help"} - {"-h"}
        for name, p in sub.choices.items()
    }
    assert got == FLAGS
    assert sum(len(flags) for flags in got.values()) == 21


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage:") and "Traceback" not in err


def _readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    for line in block.strip().splitlines():
        command, _, comment = line.partition("#")
        documented = re.search(r"exit (\d)", comment)
        yield shlex.split(command)[1:], int(documented.group(1)) if documented else 0


README_COMMANDS = list(_readme_commands())


@pytest.mark.parametrize("argv, code", README_COMMANDS, ids=[" ".join(a) for a, _ in README_COMMANDS])
def test_readme_cli_examples_exit_as_documented(argv, code, monkeypatch, tmp_path):
    monkeypatch.setenv("PASCALINV_OEIS_FIXTURES", str(ROOT / "tests" / "fixtures"))
    monkeypatch.setenv("PASCALINV_OEIS_CACHE", str(tmp_path))
    got, out, err = run(argv)
    assert got == code, err
    assert out and "Traceback" not in err

"""Judge each operation's output against references built by ``refs``.

``judge(op, output)`` returns ``None`` when the output is right, otherwise a
one-line reason.  Library outputs are check reports with the prefix they
judged, or suite results; ``judge_witnesses`` checks the sample of objects a
suite compares.  CLI outputs are ``[exit code, stdout, stderr]``.  Any CLI
output fails that exits outside 0-5, prints a traceback, or leaks a Python
repr of a library value.  ``defect_hit`` tells a known CLI defect by its
recorded symptom.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import ops
import refs

EXIT_FOR = {"invariant": 0, "inverse-invariant": 3, "neither": 4}
FIXTURES = Path("tests") / "fixtures"
_REPR = re.compile(r"\b(?:Fraction|QuadExt)\(")
_CHECK_LINE = re.compile(
    r"^(\S+) \(kind=(\w+), depth=(\d+), mode=[\w-]+\)(?:, first failure at index (\d+))?$"
)


# --- reference prefixes -----------------------------------------------------


def _named(name: str, n: int) -> list:
    if name in ("fib", "fibonacci"):
        return [Fraction(v) for v in refs.fib_ints(n)]
    if name == "lucas":
        return [Fraction(v) for v in refs.lucas_ints(n)]
    if name == "bernoulli":
        return refs.bernoulli(n)
    if name == "altbernoulli":
        return refs.alt_bernoulli(n)
    return refs.k_numbers(n)


def seq_prefix(spec, n: int) -> list:
    kind, body = spec
    if kind == "named":
        return _named(body, n)
    if kind == "finsupp":
        terms = [Fraction(t) for t in body]
        return (terms + [Fraction(0)] * n)[:n]
    return refs.geometric([(Fraction(c), Fraction(r)) for c, r in body], n)


def _binet_prefix(a: int, b: int, image: str, n: int) -> list:
    xs = [a * lv + b * fv for lv, fv in zip(refs.lucas_ints(n + 1), refs.fib_ints(n + 1))]
    if image == "shift_down":
        return xs[1:]
    if image == "shift_up":
        return [0] + xs[: n - 1]
    if image == "difference":
        return [xs[k + 1] - xs[k] for k in range(n)]
    return xs[:n]


def first_kind(op) -> tuple:
    """(verdict, first_failure) of the first-kind check a library op runs."""
    return pd_verdict(list(first_kind_prefix(op)))


@lru_cache(maxsize=None)
def first_kind_prefix(op) -> tuple:
    """The terms the first-kind check of a library op judges."""
    kind, depth = op[0], op[-1]
    if kind == "binet":
        xs = _binet_prefix(op[1], op[2], op[3], depth)
    elif kind == "family":
        xs = _named(op[1], depth)
    elif kind == "geom":
        xs = seq_prefix(("geom", op[1]), depth)
    elif kind == "basis":
        column = refs.qdown_column if op[1] == 1 else refs.zero_top_pdown_column
        xs = column(op[2], depth)
    elif kind == "powcol":
        xs = refs.power_column(op[1], op[2], op[3], depth)
    elif kind == "t42c":
        xs = refs.t42c(_named(op[1], depth))
    else:
        xs = refs.t42d(_named(op[1], depth + 1))
    return tuple(xs)


def pd_verdict(xs: list) -> tuple:
    return refs.verdict(xs, refs.pd_rows(xs))


def second_kind(spec, depth: int) -> tuple:
    kind, body = spec
    if kind == "finsupp":
        terms = [Fraction(t) for t in body]
        ys = refs.ptd_rows_finite(terms, depth)
    else:
        ys = refs.ptd_rows_geometric([(Fraction(c), Fraction(r)) for c, r in body], depth)
    return refs.verdict(seq_prefix(spec, depth), ys)


def pipeline_prefix(pipe: str, spec, depth: int) -> list:
    xs = seq_prefix(spec, depth + 8)
    for stage in pipe.split(";"):
        xs = getattr(refs, stage)(xs)
    return xs[:depth]


# --- judging ----------------------------------------------------------------


def judge(op, out):
    if op[0] == "suite":
        return _judge_suite(op, out)
    if op[0] == "cli":
        return judge_cli(op, out)
    if out[0] != "ok":
        return f"raised {out[1]}: {out[2]}"
    got = (out[1], out[2])
    want = first_kind(op)
    if got != want or out[3] != op[-1] or out[4] != "first":
        return f"report {out[1:5]} != expected {want}"
    terms = [scalar(v) for v in out[5]]
    if terms != list(first_kind_prefix(op)):
        return f"prefix {terms} != expected {list(first_kind_prefix(op))}"
    return None


def scalar(v):
    """A value sent by ``worker.plain``: a Fraction, or the triple (a, b, d) if irrational."""
    if isinstance(v, str):
        return Fraction(v)
    a, b, d = v
    return Fraction(a) if Fraction(b) == 0 else (Fraction(a), Fraction(b), d)


def suite_references(op) -> dict:
    """What ``worker.suite_witnesses`` must send for a suite op, from refs alone."""
    _, suite, d, seed = op
    if suite == "inversion":
        x = [Fraction(t) for t in ops.witness_terms(seed)]
        return {
            "PD": refs.matrix("PD", d),
            "PD^2": refs.identity(d),
            "DPD": refs.matrix("DPD", d),
            "P.DPD": refs.identity(d),
            "PTD x": refs.ptd_rows_finite(x, d),
            "PD x": refs.pd_rows((x + [Fraction(0)] * d)[:d]),
        }
    if suite == "similarity":
        m = min(8, d // 2)
        return {
            "N.M": refs.identity(d),
            "M.N": refs.identity(d),
            "N.PTD.M": refs.block_sum([[1, -1], [0, -1]], m),
            "DMtD.PD.DNtD": refs.block_sum([[1, 0], [1, -1]], m),
        }
    if suite == "eigen":
        columns = {
            ("PD", 1): refs.qdown_column,
            ("PD", -1): refs.zero_top_pdown_column,
            ("PTD", 1): refs.ptdown_column,
            ("PTD", -1): refs.qtdown00_column,
        }
        return {
            f"{space} {sign:+d} {j}": column(j, d)
            for (space, sign), column in columns.items() for j in range(9)
        }
    out = {
        "B": refs.bernoulli(d),
        "K": refs.k_numbers(d),
        "t42c(AltBernoulli)": refs.t42c(refs.alt_bernoulli(d)),
        "t42d(KSeq)": refs.t42d(refs.k_numbers(d + 1)),
        "t42c(lucas)": refs.t42c([Fraction(v) for v in refs.lucas_ints(d)]),
    }
    for base in ("P+D", "P-D"):
        for n in (1, 2):
            for j in range(5):
                out[f"{base}^{n} col {j}"] = refs.power_column(base, n, j, d)
    return out


def judge_witnesses(op, got: dict):
    """None if every sampled object of a suite op matches refs, else the first mismatch."""
    want = suite_references(op)
    if sorted(got) != sorted(want):
        return f"witnesses {sorted(got)} != {sorted(want)}"
    for label, expected in want.items():
        if isinstance(expected[0], list):  # a matrix, row by row
            values = [[scalar(v) for v in row] for row in got[label]]
        else:
            values = [scalar(v) for v in got[label]]
        if values != expected:
            return f"{label}: {values} != {expected}"
    return None


def _judge_suite(op, out):
    if out[0] != "ok":
        return f"raised {out[1]}: {out[2]}"
    names = tuple(r[0] for r in out[1])
    if names != ops.SUITE_CHECKS[op[1]]:
        return f"ran checks {names}"
    failed = [r[0] for r in out[1] if not r[1] or r[2] != op[2]]
    return f"checks failed: {failed}" if failed else None


def judge_cli(op, out):
    _, category, argv, spec = op
    code, stdout, stderr = out
    if not 0 <= code <= 5:
        return f"exit code {code}"
    if "Traceback" in stderr or "Traceback" in stdout:
        return "traceback: " + stderr.strip().splitlines()[-1] if stderr.strip() else "traceback"
    if _REPR.search(stdout) or _REPR.search(stderr):
        return "leaks a Python repr: " + (stderr or stdout).strip()
    if category == "defect":
        return _defect_fixed(op, code, stdout, stderr)
    if category == "error":
        want_code, marker = spec
        if code != want_code or marker not in stderr:
            return f"exit {code}, stderr {stderr.strip()!r}; expected exit {want_code} with {marker!r}"
        return None
    try:
        return _CLI_JUDGES[category](spec, code, stdout)
    except (AttributeError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output ({exc}): {stdout[:200]!r}"


# The recorded symptom of each known CLI defect: exit code, texts in stderr.
DEFECT_SYMPTOMS = {
    "rows-0": (1, ("Traceback", "ValueError: truncation dimensions must be >= 1")),
    "mixed-fields": (1, ("Traceback", "ValueError: cannot mix")),
    "jinv-0": (2, ("parse error: Fraction(1, 0)",)),
}


def defect_hit(op, out) -> bool:
    """True if a known-defect argv still shows the defect's recorded symptom."""
    code, _, stderr = out
    want_code, markers = DEFECT_SYMPTOMS[op[3]]
    return code == want_code and all(m in stderr for m in markers)


def _defect_fixed(op, code, stdout, stderr):
    """A known-defect argv that no longer fails must end in a defined outcome:
    a one-line ``error:`` with exit 2, or for rows-0 an empty matrix (no rows)."""
    if code == 2 and "error:" in stderr:
        return None
    if op[3] == "rows-0" and code == 0 and not stdout.strip():
        return None
    return f"known defect {op[3]} neither fails as recorded nor ends cleanly: exit {code}, stderr {stderr.strip()[-300:]!r}"


def _value(obj) -> Fraction:
    if "num" in obj:
        return Fraction(int(obj["num"]), int(obj["den"]))
    if _value(obj["b"]) != 0:
        raise ValueError("irrational term")
    return _value(obj["a"])


def _terms(stdout: str, fmt: str) -> list:
    if fmt == "json":
        return [_value(t) for t in json.loads(stdout)["terms"]]
    return [Fraction(t) for t in stdout.splitlines()[0].split(",")]


def _gen(spec, code, stdout):
    seq, depth, fmt = spec
    want = seq_prefix(seq, depth)
    got = _terms(stdout, fmt)
    return None if code == 0 and got == want else f"exit {code}, terms {got} != {want}"


def _check(spec, code, stdout):
    seq, kind, depth, _mode, fmt = spec
    want = pd_verdict(seq_prefix(seq, depth)) if kind == "first" else second_kind(seq, depth)
    if fmt == "json":
        rep = json.loads(stdout)
        got = (rep["verdict"], rep["first_failure"], rep["kind"], rep["depth"])
    else:
        m = _CHECK_LINE.match(stdout.strip())
        fail = m.group(4)
        got = (m.group(1), int(fail) if fail else None, m.group(2), int(m.group(3)))
    if got != (*want, kind, depth) or code != EXIT_FOR[want[0]]:
        return f"exit {code}, report {got}; expected {want}"
    return None


def _apply(spec, code, stdout):
    pipe, seq, depth, fmt = spec
    want = pipeline_prefix(pipe, seq, depth)
    got = _terms(stdout, fmt)
    if fmt == "json":
        announced = json.loads(stdout)["class"]
    elif fmt == "pretty":
        announced = stdout.splitlines()[1].removeprefix("class: ")
    else:
        announced = "unclassified"
    if code != 0 or got != want or announced != "unclassified":
        return f"exit {code}, terms {got} (class {announced!r}) != {want}"
    return None


def _matrix(spec, code, stdout):
    name, param, rows, cols, fmt = spec
    p = Fraction(param) if param is not None else None
    want = [[Fraction(refs.matrix_entry(name, i, j, p)) for j in range(cols)] for i in range(rows)]
    if fmt == "json":
        got = [[_value(e) for e in row] for row in json.loads(stdout)["entries"]]
    else:
        sep = "," if fmt == "csv" else None
        got = [[Fraction(c) for c in line.split(sep)] for line in stdout.splitlines()]
    return None if code == 0 and got == want else f"exit {code}, entries {got} != {want}"


def _verify(spec, code, stdout):
    suite, fmt = spec
    want = list(ops.SUITE_CHECKS[suite])
    if fmt == "json":
        payload = json.loads(stdout)
        names = [r["name"] for r in payload["results"] if r["passed"]]
        ok = payload["all_passed"] and names == want
    else:
        lines = stdout.splitlines()
        names = [line.split()[1] for line in lines[:-1] if line.startswith("PASS ")]
        ok = names == want and lines[-1] == f"{len(want)}/{len(want)} checks passed"
    return None if code == 0 and ok else f"exit {code}, passed {names} != {want}"


def _table1(spec, code, stdout):
    (fmt,) = spec
    want = {"B": list(refs.TABLE1_B), "DB": refs.alt_bernoulli(13), "K": list(refs.TABLE1_K)}
    if fmt == "json":
        got = {k: [_value(v) for v in vals] for k, vals in json.loads(stdout).items()}
    else:
        lines = stdout.splitlines()
        if fmt == "pretty":
            lines = [line.split(": ", 1)[1] for line in lines]
        got = {k: [Fraction(v) for v in line.split(",")] for k, line in zip(want, lines)}
    return None if code == 0 and got == want else f"exit {code}, table {got} != {want}"


def _oeis(spec, code, stdout):
    name, fmt = spec
    terms = refs.fib_ints(10) if name == "fib" else refs.lucas_ints(10)
    raw = json.loads((FIXTURES / (",".join(map(str, terms)) + ".raw")).read_text())
    want = [(f"A{e['number']:06d}", e["name"]) for e in raw["results"]]
    if fmt == "json":
        payload = json.loads(stdout)
        got = [(m["id"], m["name"]) for m in payload["matches"]]
        source = payload["source"]
    else:
        lines = stdout.splitlines()
        source = lines[0].removeprefix("source: ")
        got = [tuple(line.split("  ", 1)) for line in lines[1:]]
    if code != 0 or source != "fixture" or got != want:
        return f"exit {code}, source {source}, matches {got} != {want}"
    return None


_CLI_JUDGES = {
    "gen": _gen,
    "check": _check,
    "apply": _apply,
    "matrix": _matrix,
    "verify": _verify,
    "table1": _table1,
    "oeis": _oeis,
}

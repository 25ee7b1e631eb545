"""Command-line front end: generate, check, transform, display and verify.

Each subcommand takes ``--format`` and, of ``--depth``, ``--mode`` and
``--seed``, only those it reads (see ``build_parser``); ``check``, ``verify``
and ``oeis`` print no ``csv``.  Any other flag is a usage error.

Exit codes, for every subcommand:

====  ==========================================================
code  meaning
====  ==========================================================
0     success (``check``: invariant)
1     ``verify``: a check failed; ``oeis``: the lookup failed
      (network error, or an ``--offline`` cache miss); any
      command: stdout was closed before all output was written
2     parse or usage error, a depth below 2, a ``--depth``,
      ``--rows`` or ``--cols`` above ``sys.maxsize``, a
      request that runs out of memory, a non-integer prefix
      given to ``oeis``, an ``apply`` pipeline nested too
      deeply to evaluate (Python's recursion limit), or an
      ``apply`` pipeline that would grow a ``finsupp`` input
      past the support cap (``transforms.SUPPORT_CAP``)
3     ``check``: inverse invariant
4     ``check``: neither
5     summation error
====  ==========================================================

Each subcommand imports only the library modules it runs: ``transforms``
for pipelines, ``eigenstructure`` for the matrices it defines, ``checks``
for ``verify`` and ``oeis`` for ``oeis``.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from importlib import import_module
from typing import TYPE_CHECKING

from .errors import PascalinvError, SupportCapError
from .operators import _NAMED, make_operator, truncate
from .scalars import QuadExt, format_scalar, parse_scalar, scalar_to_json
from .sequences import (
    AltBernoulli,
    Bernoulli,
    ExpComb,
    FinSupp,
    KSeq,
    Seq,
    check_invariance,
    fibonacci,
    lucas,
    prefix,
)

if TYPE_CHECKING:
    from .transforms import Pipeline

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INVERSE = 3
EXIT_NEITHER = 4
EXIT_SUMMATION = 5

_VERDICT_EXIT = {"invariant": EXIT_OK, "inverse-invariant": EXIT_INVERSE, "neither": EXIT_NEITHER}

_NAMED_SEQS = {
    "fib": fibonacci,
    "fibonacci": fibonacci,
    "lucas": lucas,
    "bernoulli": Bernoulli,
    "altbernoulli": AltBernoulli,
    "kseq": KSeq,
}


class LiteralError(ValueError):
    pass


def parse_sequence(text: str) -> Seq:
    """Parse ``fib``, ``finsupp:[1,0,-2/3]`` or ``geom:(1,1/3)+(1/2,-2)`` literals."""
    s = text.strip()
    if s in _NAMED_SEQS:
        return _NAMED_SEQS[s]()
    if s.startswith("finsupp:"):
        body = s[len("finsupp:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise LiteralError(f"finsupp literal needs [..]: {text!r}")
        inner = body[1:-1].strip()
        items = inner.split(",") if inner else []
        if not all(t.strip() for t in items):
            raise LiteralError(f"empty item in finsupp literal: {text!r}")
        try:
            terms = [parse_scalar(t) for t in items]
        except ValueError as exc:
            raise LiteralError(str(exc)) from exc
        _check_one_field(terms)
        return FinSupp(terms)
    if s.startswith("geom:"):
        body = s[len("geom:"):].strip()
        pairs = re.findall(r"\(([^()]*)\)", body)
        leftover = re.sub(r"\(([^()]*)\)", "", body).replace("+", "").strip()
        if not pairs or leftover:
            raise LiteralError(f"geom literal needs (c,r)+(c,r)+...: {text!r}")
        parsed = []
        for p in pairs:
            bits = p.split(",")
            if len(bits) != 2:
                raise LiteralError(f"geom pair needs two scalars: ({p})")
            try:
                parsed.append((parse_scalar(bits[0]), parse_scalar(bits[1])))
            except ValueError as exc:
                raise LiteralError(str(exc)) from exc
        _check_one_field([x for pair in parsed for x in pair])
        return ExpComb(tuple(parsed))
    raise LiteralError(f"unknown sequence literal: {text!r}")


def _check_one_field(scalars) -> None:
    """Irrational scalars of one literal must share a quadratic field."""
    roots = sorted({x.d for x in scalars if isinstance(x, QuadExt) and not x.is_rational})
    if len(roots) > 1:
        fields = " with ".join(f"Q(√{d})" for d in roots)
        raise LiteralError(f"cannot mix {fields} in one sequence")


_PIPE_TOKEN = re.compile(r"^(phi|phitilde|psi|psitilde)\((\d+)\)$")


def parse_pipeline(text: str) -> Pipeline:
    """Parse ``t42a;phi(2);...`` applied left to right (``a;b`` runs a first)."""
    from . import transforms as tr

    steps = []
    for raw in text.split(";"):
        token = raw.strip()
        if not token:
            raise LiteralError("empty pipeline stage")
        if token in tr.TRANSFORM_STAGES:
            steps.append(tr.TRANSFORM_STAGES[token])
            continue
        m = _PIPE_TOKEN.match(token)
        if not m:
            raise LiteralError(f"unknown pipeline stage: {token!r}")
        name, n = m.group(1), int(m.group(2))
        builder = tr.build_phi if name.startswith("phi") else tr.build_psi
        variant = "tilde" if name.endswith("tilde") else "plain"
        try:
            steps.extend(builder(n, variant).steps)
        except ValueError as exc:
            raise LiteralError(str(exc)) from exc
    return tr.Pipeline(tuple(steps))


# Factories by their name in the package namespace, looked up on use: the
# eigenstructure ones import that module the first time they are asked for.
_MATRIX_EXTRA = {
    "N": "make_N",
    "M": "make_M",
    "PTdown": "ptdown",
    "Qdown": "qdown",
    "QTdown00": "qtdown00",
    "ZeroTopPdown": "zero_top_pdown",
}


def resolve_matrix(name: str):
    if name in _NAMED:
        return make_operator(name)
    if name in _MATRIX_EXTRA:
        return getattr(import_module(__package__), _MATRIX_EXTRA[name])()
    if ":" in name:
        base, _, param = name.partition(":")
        if base in ("J", "Jinv"):
            try:
                return make_operator(base, parse_scalar(param))
            except ValueError as exc:
                raise LiteralError(str(exc)) from exc
    raise LiteralError(f"unknown matrix name: {name!r}")


def _class_phrase(cls) -> str:
    if cls is None:
        return "unclassified"
    kind, sign = cls
    word = "invariant" if sign == 1 else "inverse invariant"
    return f"{word} of the {kind} kind"


def _emit_terms(label: str, terms, fmt: str, announcement=None) -> None:
    if fmt == "json":
        payload = {"label": label, "terms": [scalar_to_json(t) for t in terms]}
        if announcement is not None:
            payload["class"] = announcement
        print(json.dumps(payload))
        return
    print(",".join(format_scalar(t) for t in terms))
    if fmt == "pretty" and announcement is not None:
        print(f"class: {announcement}")


def cmd_gen(args) -> int:
    seq = parse_sequence(args.sequence)
    _emit_terms(args.sequence, prefix(seq, args.depth), args.format)
    return EXIT_OK


def cmd_check(args) -> int:
    seq = parse_sequence(args.sequence)
    report = check_invariance(seq, args.kind, args.depth, args.mode)
    if args.format == "json":
        print(json.dumps(report.__dict__))
    else:
        msg = f"{report.verdict} (kind={report.kind}, depth={report.depth}, mode={report.mode})"
        if report.first_failure is not None:
            msg += f", first failure at index {report.first_failure}"
        print(msg)
    return _VERDICT_EXIT[report.verdict]


def cmd_apply(args) -> int:
    pipe = parse_pipeline(args.pipeline)
    seq = parse_sequence(args.sequence)
    try:
        terms = prefix(pipe.apply(seq, args.mode), args.depth)
    except RecursionError:
        # each stage nests the lazy images of the stages before it
        print(f"error: {len(pipe.steps)} stages nest past the recursion limit", file=sys.stderr)
        return EXIT_PARSE
    except SupportCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    announcement = _class_phrase(pipe.output_class())
    _emit_terms(pipe.describe(), terms, args.format, announcement)
    return EXIT_OK


def cmd_matrix(args) -> int:
    if args.rows < 1 or args.cols < 1:
        raise LiteralError("--rows and --cols must be >= 1")
    op = resolve_matrix(args.name)
    block = truncate(op, args.rows, args.cols)
    if args.format == "json":
        print(json.dumps({"label": op.label, "entries": block.to_jsonable()}))
    elif args.format == "csv":
        print(block.to_csv())
    else:
        print(block)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .checks import RunConfig, run_suite

    cfg = RunConfig(depth=args.depth, mode=args.mode, seed=args.seed)
    results = run_suite(args.suite, cfg)
    all_ok = all(r.passed for r in results)
    if args.format == "json":
        rows = [
            {"name": r.name, "passed": r.passed, "depth": r.depth,
             "elapsed_ms": round(r.elapsed_ms, 3), "detail": r.detail}
            for r in results
        ]
        print(json.dumps({"suite": args.suite, "all_passed": all_ok, "results": rows}))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            tail = f": {r.detail}" if r.detail else ""
            print(f"{status} {r.name} (depth={r.depth}, {r.elapsed_ms:.1f}ms){tail}")
        print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_table1(args) -> int:
    rows = {"B": prefix(Bernoulli(), 13), "DB": prefix(AltBernoulli(), 13), "K": prefix(KSeq(), 13)}
    if args.format == "json":
        print(
            json.dumps(
                {name: [scalar_to_json(v) for v in vals] for name, vals in rows.items()}
            )
        )
        return EXIT_OK
    for name, vals in rows.items():
        line = ",".join(format_scalar(v) for v in vals)
        print(line if args.format == "csv" else f"{name}: {line}")
    return EXIT_OK


def cmd_oeis(args) -> int:
    from . import oeis

    seq = parse_sequence(args.sequence)
    try:
        result = oeis.lookup(
            seq, args.depth, offline=args.offline, cache_dir=args.cache_dir
        )
    except oeis.NonIntegerSequenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (oeis.NetworkError, oeis.CacheMissError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if args.format == "json":
        print(
            json.dumps(
                {
                    "prefix": result.query_prefix,
                    "source": result.source,
                    "matches": [{"id": i, "name": n} for i, n in result.matches],
                }
            )
        )
        return EXIT_OK
    print(f"source: {result.source}")
    for ident, name in result.matches:
        print(f"{ident}  {name}")
    if not result.matches:
        print("no matches")
    return EXIT_OK


# Options shared by several subcommands; each subcommand takes --format and
# only those of these that its cmd_* function reads.
_OPTIONS = {
    "--depth": dict(type=int, default=32, help="prefix length (default 32)"),
    "--mode": dict(choices=("classical", "continued"), default="continued",
                   help="summation mode for second-kind sums"),
    "--seed": dict(type=int, default=0, help="seed for randomised checks"),
}
_NO_CSV = ("pretty", "json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pascalinv",
        description="Exact Pascal-matrix calculus and invariant-sequence toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *options, formats=("pretty", "json", "csv")):
        p = sub.add_parser(name, help=help)
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
        p.add_argument("--format", choices=formats, default="pretty")
        p.set_defaults(func=func)
        return p

    p = command("gen", cmd_gen, "print a sequence prefix", "--depth")
    p.add_argument("sequence")

    p = command("check", cmd_check, "classify a sequence", "--depth", "--mode", formats=_NO_CSV)
    p.add_argument("sequence")
    p.add_argument("--kind", choices=("first", "second"), required=True)

    p = command("apply", cmd_apply, "run a transform pipeline", "--depth", "--mode")
    p.add_argument("pipeline")
    p.add_argument("sequence")

    p = command("matrix", cmd_matrix, "print an exact matrix block")
    p.add_argument("name")
    p.add_argument("--rows", type=int, default=8)
    p.add_argument("--cols", type=int, default=8)

    p = command("verify", cmd_verify, "run identity check suites", "--depth", "--mode", "--seed",
                formats=_NO_CSV)
    p.add_argument("suite", choices=("inversion", "eigen", "similarity", "transforms", "all"))

    command("table1", cmd_table1, "Bernoulli-derived rows, n <= 12")

    p = command("oeis", cmd_oeis, "identify an integer sequence", "--depth", formats=_NO_CSV)
    p.add_argument("sequence")
    p.add_argument("--offline", action="store_true")
    p.add_argument("--cache-dir", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "depth" in args and args.depth < 2:
        print("depth must be >= 2", file=sys.stderr)
        return EXIT_PARSE
    # a larger size cannot index a list; smaller ones run, however long they take
    for size in ("depth", "rows", "cols"):
        if getattr(args, size, 0) > sys.maxsize:
            print(f"--{size} must be <= {sys.maxsize}", file=sys.stderr)
            return EXIT_PARSE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early (say, piped into head): point it at devnull
        # so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except LiteralError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PascalinvError as exc:
        print(f"summation error: {exc}", file=sys.stderr)
        return EXIT_SUMMATION
    except MemoryError:
        print("error: not enough memory for this request", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: generate, check, transform, display and verify.

Each subcommand takes ``--format`` and, of ``--depth``, ``--mode`` and
``--seed``, only those it reads (see ``build_parser``); ``check``, ``verify``
and ``oeis`` print no ``csv``.  Any other flag is a usage error.

The README's "CLI" section lists every exit code.  ``check`` exits with its
verdict's code (``_VERDICT_EXIT``) and ``verify`` with 1 when a check fails.
``main`` maps each error class a subcommand raises to its exit code and stderr
lead (``_ERROR_EXITS``); a size out of range, a request that runs out of
memory and stdout closed early have their own branches there, and ``apply``
refuses a pipeline nested past the recursion limit itself.  Each subcommand
builds its JSON payload and text lines and prints them through ``_show``, and
imports only the library modules it runs: ``transforms`` for pipelines,
``eigenstructure`` for the matrices it defines, ``checks`` for ``verify`` and
``oeis`` for ``oeis``.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from importlib import import_module
from typing import TYPE_CHECKING

from .errors import (
    CacheMissError,
    NetworkError,
    NonIntegerSequenceError,
    PascalinvError,
    SupportCapError,
)
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
        return FinSupp(_scalars(items))
    if s.startswith("geom:"):
        body = s[len("geom:"):].strip()
        pairs = re.findall(r"\(([^()]*)\)", body)
        leftover = re.sub(r"\(([^()]*)\)", "", body).replace("+", "").strip()
        if not pairs or leftover:
            raise LiteralError(f"geom literal needs (c,r)+(c,r)+...: {text!r}")
        # a generator, so each pair's scalars are read before the next pair is split
        scalars = _scalars(x for p in pairs for x in _geom_pair(p))
        return ExpComb(tuple(zip(scalars[::2], scalars[1::2])))
    raise LiteralError(f"unknown sequence literal: {text!r}")


def _geom_pair(p: str) -> list:
    bits = p.split(",")
    if len(bits) != 2:
        raise LiteralError(f"geom pair needs two scalars: ({p})")
    return bits


def _scalars(items) -> list:
    """The scalars of a literal's items; its irrational ones must share a quadratic field."""
    try:
        scalars = [parse_scalar(t) for t in items]
    except ValueError as exc:
        raise LiteralError(str(exc)) from exc
    roots = sorted({x.d for x in scalars if isinstance(x, QuadExt) and not x.is_rational})
    if len(roots) > 1:
        fields = " with ".join(f"Q(√{d})" for d in roots)
        raise LiteralError(f"cannot mix {fields} in one sequence")
    return scalars


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


def _row(terms) -> str:
    return ",".join(format_scalar(t) for t in terms)


def _json_row(terms) -> list:
    return [scalar_to_json(t) for t in terms]


def _show(fmt: str, payload, pretty, csv=None) -> None:
    """Print one result: ``payload()`` as a JSON line, or the text lines that
    ``pretty()`` or, for ``csv``, ``csv()`` returns (``pretty()`` when ``csv``
    is None).  Each form is a function, so only the one printed is built."""
    if fmt == "json":
        print(json.dumps(payload()))
    else:
        print("\n".join((csv if csv and fmt == "csv" else pretty)()))


def cmd_gen(args) -> int:
    terms = prefix(parse_sequence(args.sequence), args.depth)
    _show(args.format, lambda: {"label": args.sequence, "terms": _json_row(terms)},
          lambda: [_row(terms)])
    return EXIT_OK


def cmd_check(args) -> int:
    report = check_invariance(parse_sequence(args.sequence), args.kind, args.depth, args.mode)
    msg = f"{report.verdict} (kind={report.kind}, depth={report.depth}, mode={report.mode})"
    if report.first_failure is not None:
        msg += f", first failure at index {report.first_failure}"
    _show(args.format, lambda: report.__dict__, lambda: [msg])
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
    announcement = _class_phrase(pipe.output_class())
    _show(
        args.format,
        lambda: {"label": pipe.describe(), "terms": _json_row(terms), "class": announcement},
        lambda: [_row(terms), f"class: {announcement}"],
        lambda: [_row(terms)],
    )
    return EXIT_OK


# the most entries one ``matrix`` block may hold; a larger one is refused
# before any entry is computed (README, "Growth")
_MATRIX_CAP = 2 ** 24


def cmd_matrix(args) -> int:
    if args.rows < 1 or args.cols < 1:
        raise LiteralError("--rows and --cols must be >= 1")
    op = resolve_matrix(args.name)
    size = args.rows * args.cols
    if size > _MATRIX_CAP:
        raise SupportCapError(f"a {args.rows} x {args.cols} block has {size} entries, "
                              f"past the cap of {_MATRIX_CAP}")
    block = truncate(op, args.rows, args.cols)
    _show(args.format, lambda: {"label": op.label, "entries": block.to_jsonable()},
          lambda: [str(block)], lambda: [block.to_csv()])
    return EXIT_OK


def cmd_verify(args) -> int:
    from .checks import RunConfig, run_suite

    cfg = RunConfig(depth=args.depth, mode=args.mode, seed=args.seed)
    results = run_suite(args.suite, cfg)
    passed = sum(r.passed for r in results)
    all_ok = passed == len(results)
    rows = [{"name": r.name, "passed": r.passed, "depth": r.depth,
             "elapsed_ms": round(r.elapsed_ms, 3), "detail": r.detail} for r in results]
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name} (depth={r.depth}, {r.elapsed_ms:.1f}ms)"
             + (f": {r.detail}" if r.detail else "") for r in results]
    _show(args.format, lambda: {"suite": args.suite, "all_passed": all_ok, "results": rows},
          lambda: lines + [f"{passed}/{len(results)} checks passed"])
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_table1(args) -> int:
    rows = {"B": prefix(Bernoulli(), 13), "DB": prefix(AltBernoulli(), 13), "K": prefix(KSeq(), 13)}
    _show(
        args.format,
        lambda: {name: _json_row(vals) for name, vals in rows.items()},
        lambda: [f"{name}: {_row(vals)}" for name, vals in rows.items()],
        lambda: [_row(vals) for vals in rows.values()],
    )
    return EXIT_OK


def cmd_oeis(args) -> int:
    from . import oeis

    seq = parse_sequence(args.sequence)
    result = oeis.lookup(seq, args.depth, offline=args.offline, cache_dir=args.cache_dir)
    matches = [{"id": ident, "name": name} for ident, name in result.matches]
    _show(
        args.format,
        lambda: {"prefix": result.query_prefix, "source": result.source, "matches": matches},
        lambda: [f"source: {result.source}"]
        + ([f"{m['id']}  {m['name']}" for m in matches] or ["no matches"]),
    )
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


# The exit code and the stderr lead of each error class a subcommand may raise;
# the first row whose class matches applies.
_ERROR_EXITS = (
    (LiteralError, EXIT_PARSE, "parse error"),
    ((NetworkError, CacheMissError), EXIT_FAIL, "error"),
    ((NonIntegerSequenceError, SupportCapError), EXIT_PARSE, "error"),
    (PascalinvError, EXIT_SUMMATION, "summation error"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    except MemoryError:
        print("error: not enough memory for this request", file=sys.stderr)
        return EXIT_PARSE
    except (LiteralError, PascalinvError) as exc:  # every class of _ERROR_EXITS
        code, lead = next((c, lead) for cls, c, lead in _ERROR_EXITS if isinstance(exc, cls))
        print(f"{lead}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())

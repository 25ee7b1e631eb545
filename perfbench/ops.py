"""Seeded operation lists for the benchmark's workloads.

An operation is a plain tuple, so the parent process (which never imports
pascalinv) and the worker process build the same list from one seed.  Each
workload repeats decks.  A deck holds a fixed mix of operation shapes and
depths, so every deck costs about the same; the seed draws the parameters
that do not set the cost (coefficients, ratios, indices, formats) and the
order within the deck.  Deck ``k`` depends only on the workload, the seed
and ``k``.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

WORKLOADS = ("binet-first", "rational-first", "verify-suite", "cli-commands")

BINET_DEPTHS = (20, 28, 36, 44)
BINET_IMAGES = ("id", "shift_down", "shift_up", "difference")
RATIONAL_DEPTHS = (24, 40, 56)
SUITE_NAMES = ("inversion", "similarity", "eigen", "transforms")
SUITE_DEPTHS = (8, 12, 16, 20, 24, 28, 32)
# The checks each suite of pascalinv.checks runs, in order.
SUITE_CHECKS = {
    "inversion": ("pd-involution", "pascal-inverse", "ptd-involution", "binomial-involution"),
    "similarity": ("NM-identity", "block-diag", "stabilization"),
    "eigen": ("basis-eigen", "basis-matrix-agreement"),
    "transforms": ("table1", "transform-orbit", "power-columns", "orthogonality", "pipeline-classes"),
}
SUITE_CHECKS["all"] = tuple(itertools.chain(*SUITE_CHECKS.values()))
CHECK_NAMES = SUITE_CHECKS["all"]

NAMED_SEQS = ("fib", "lucas", "bernoulli", "altbernoulli", "kseq")
PLAIN_MATRICES = ("P", "PT", "D", "A", "L", "Omega", "Q", "QT", "PD", "PTD")
# The known CLI defects: inputs that end in a traceback or leak a Python repr.
DEFECTS = {
    "rows-0": "matrix <name> --rows 0 raises an uncaught ValueError",
    "mixed-fields": "geom literal mixing sqrt2 and sqrt3 raises an uncaught ValueError",
    "jinv-0": "matrix Jinv:0 prints 'parse error: Fraction(1, 0)'",
}


def deck(workload: str, seed: int, k: int) -> list:
    rng = random.Random(f"{workload}:{seed}:{k}")
    ops = _DECKS[workload](rng)
    rng.shuffle(ops)
    return ops


def _nonzero(rng, lo=-3, hi=3):
    return rng.choice([v for v in range(lo, hi + 1) if v])


def _binet_deck(rng) -> list:
    # A Latin square of forms over (image, depth): every depth and every image
    # meets pure Lucas, pure Fibonacci and two mixed a*L + b*F once each.
    kinds = ["L", "F", "M", "M"]
    rng.shuffle(kinds)
    ops = []
    for i, image in enumerate(BINET_IMAGES):
        for j, d in enumerate(BINET_DEPTHS):
            kind = kinds[(i + j) % 4]
            a, b = {"L": (1, 0), "F": (0, 1)}.get(kind) or (_nonzero(rng), _nonzero(rng))
            ops.append(("binet", a, b, image, d))
    return ops


def _ratio(rng, den):
    return str(Fraction(_nonzero(rng, -2 * den, 2 * den), den))


def _rational_deck(rng) -> list:
    ops = []
    for d in RATIONAL_DEPTHS:
        ops += [("family", name, d) for name in ("bernoulli", "altbernoulli", "kseq")]
        r = Fraction(_ratio(rng, 3))
        c = Fraction(_nonzero(rng))
        ops.append(("geom", ((str(c), str(r)), (str(c), str(1 - r))), d))
        r = Fraction(rng.choice((-3, -1, 1, 3, 5)), 4)  # never 1/2, so r != 1 - r
        ops.append(("geom", ((str(c), str(r)), (str(-c), str(1 - r))), d))
        ops.append(("geom", tuple((str(_nonzero(rng)), _ratio(rng, 5)) for _ in range(2)), d))
        ops += [("basis", sign, rng.randrange(9), d) for sign in (1, -1)]
        ops += [("powcol", base, n, rng.randrange(5), d) for base in ("P+D", "P-D") for n in (1, 2, 3)]
        ops += [(t, name, d) for t in ("t42c", "t42d") for name in ("bernoulli", "altbernoulli", "kseq")]
    return ops


def _suite_deck(rng) -> list:
    return [
        ("suite", name, d, rng.randrange(1 << 16))
        for name, d in itertools.product(SUITE_NAMES, SUITE_DEPTHS)
    ]


def witness_terms(seed: int) -> tuple:
    """A seeded finitely supported sequence for the verify-suite spot checks."""
    rng = random.Random(f"witness:{seed}")
    return tuple(_rat(rng) for _ in range(rng.randint(1, 8)))


# --- cli-commands -----------------------------------------------------------
# A CLI operation is ("cli", category, argv, spec); the spec is what the
# parent needs to compute the expected outcome from refs.


def _rat(rng):
    return str(Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4))))


def _finsupp_spec(rng):
    return ("finsupp", tuple(_rat(rng) for _ in range(rng.randint(1, 6))))


def _geom_spec(rng, max_abs=None):
    pairs = []
    for _ in range(rng.randint(1, 2)):
        den = rng.choice((2, 3, 4, 5))
        bound = den - 1 if max_abs else 2 * den
        pairs.append((str(_nonzero(rng)), str(Fraction(_nonzero(rng, -bound, bound), den))))
    return ("geom", tuple(pairs))


def literal(spec) -> str:
    kind, body = spec
    if kind == "named":
        return body
    if kind == "finsupp":
        return "finsupp:[" + ",".join(body) + "]"
    return "geom:" + "+".join(f"({c},{r})" for c, r in body)


def _fmt(rng):
    return rng.choice(("pretty", "csv", "json"))


def _cli_valid(rng) -> list:
    ops = []
    depth = rng.randint(4, 16)
    fmt = _fmt(rng)
    spec = ("named", rng.choice(NAMED_SEQS))
    ops.append(("gen", ("gen", literal(spec), "--depth", str(depth), "--format", fmt), (spec, depth, fmt)))
    spec = rng.choice((_finsupp_spec, _geom_spec))(rng)
    ops.append(("gen", ("gen", literal(spec), "--depth", str(depth), "--format", fmt), (spec, depth, fmt)))
    for maker in (lambda r: ("named", r.choice(NAMED_SEQS)), _geom_spec):
        spec, depth, fmt = maker(rng), rng.randint(4, 24), rng.choice(("pretty", "json"))
        argv = ("check", literal(spec), "--kind", "first", "--depth", str(depth), "--format", fmt)
        ops.append(("check", argv, (spec, "first", depth, "continued", fmt)))
    for maker in (_finsupp_spec, lambda r: _geom_spec(r, max_abs=True)):
        spec, depth, fmt = maker(rng), rng.randint(4, 24), rng.choice(("pretty", "json"))
        mode = rng.choice(("continued", "classical"))
        argv = ("check", literal(spec), "--kind", "second", "--depth", str(depth), "--mode", mode, "--format", fmt)
        ops.append(("check", argv, (spec, "second", depth, mode, fmt)))
    spec = ("named", rng.choice(("fib", "lucas", "altbernoulli", "kseq", "bernoulli")))
    pipe = rng.choice(("t42a", "t42c", "t42d", "t42c;t42d", "t42d;t42c"))
    depth, fmt = rng.randint(4, 12), _fmt(rng)
    ops.append(("apply", ("apply", pipe, literal(spec), "--depth", str(depth), "--format", fmt), (pipe, spec, depth, fmt)))
    spec, pipe = _finsupp_spec(rng), rng.choice(("t42a", "t42b", "t42a;t42b", "t42c"))
    depth, fmt = rng.randint(4, 12), _fmt(rng)
    ops.append(("apply", ("apply", pipe, literal(spec), "--depth", str(depth), "--format", fmt), (pipe, spec, depth, fmt)))
    for _ in range(2):
        name = rng.choice(PLAIN_MATRICES + ("J", "Jinv"))
        param = None
        shown = name
        if name in ("J", "Jinv"):
            param = str(Fraction(_nonzero(rng), rng.choice((1, 2, 3))))
            shown = f"{name}:{param}"
        rows, cols, fmt = rng.randint(1, 8), rng.randint(1, 8), _fmt(rng)
        argv = ("matrix", shown, "--rows", str(rows), "--cols", str(cols), "--format", fmt)
        ops.append(("matrix", argv, (name, param, rows, cols, fmt)))
    suite = rng.choice(SUITE_NAMES + ("all",))
    depth, fmt = rng.randint(6, 10), rng.choice(("pretty", "json"))
    ops.append(("verify", ("verify", suite, "--depth", str(depth), "--format", fmt), (suite, fmt)))
    fmt = _fmt(rng)
    ops.append(("table1", ("table1", "--format", fmt), (fmt,)))
    name, fmt = rng.choice(("fib", "lucas")), rng.choice(("pretty", "json"))
    ops.append(("oeis", ("oeis", name, "--offline", "--depth", "10", "--format", fmt), (name, fmt)))
    return ops


def _cli_malformed(rng) -> list:
    # One input from each documented error class: (category, argv, (exit code, stderr marker)).
    parse = rng.choice((
        ("gen", "nonsense:[", "--depth", "4"),
        ("gen", "finsupp:{1,2}", "--depth", "4"),
        ("gen", "geom:(1)", "--depth", "4"),
        ("check", "finsupp:[1,x]", "--kind", "first"),
        ("apply", "t42z", "lucas"),
        ("apply", "phi(0)", "lucas"),
        ("matrix", "Zed"),
        ("matrix", "J:abc"),
    ))
    usage = rng.choice((
        ("check", "lucas", "--kind", "third"),
        ("check", "lucas"),
        ("gen", "fib", "--format", "xml"),
        ("gen", "fib", "--depth", "1"),
        ("verify", "everything"),
    ))
    usage_marker = "depth must be >= 2" if usage[-1] == "1" else "usage:"
    c = _nonzero(rng)
    summation = rng.choice((
        ("check", f"geom:({c},-1)", "--kind", "second"),
        ("check", f"geom:({c},{rng.choice(('2', '3', '-2', '3/2'))})", "--kind", "second", "--mode", "classical"),
        ("check", "bernoulli", "--kind", "second"),
        ("apply", "t42b", "kseq"),
    ))
    oeis = ("oeis", rng.choice(("bernoulli", "kseq", "geom:(1,1/2)")), "--offline", "--depth", "10")
    return [
        ("error", parse, (2, "parse error")),
        ("error", usage, (2, usage_marker)),
        ("error", summation, (5, "summation error")),
        ("error", oeis, (2, "error:")),
    ]


def _cli_defects(rng) -> list:
    name = rng.choice(PLAIN_MATRICES)
    rows0 = ("matrix", name, "--rows", "0", "--cols", str(rng.randint(1, 8)))
    c1, c2 = _nonzero(rng), _nonzero(rng)
    roots = rng.choice((("sqrt2", "sqrt3"), ("sqrt3", "sqrt2"), ("1+sqrt2", "sqrt3")))
    mixed = (rng.choice(("gen", "check")), f"geom:({c1},{roots[0]})+({c2},{roots[1]})")
    if mixed[0] == "check":
        mixed += ("--kind", "first")
    jinv0 = ("matrix", "Jinv:0", "--rows", str(rng.randint(1, 8)))
    return [("defect", rows0, "rows-0"), ("defect", mixed, "mixed-fields"), ("defect", jinv0, "jinv-0")]


def _cli_deck(rng) -> list:
    return [("cli", cat, argv, spec) for cat, argv, spec in _cli_valid(rng) + _cli_malformed(rng) + _cli_defects(rng)]


_DECKS = {
    "binet-first": _binet_deck,
    "rational-first": _rational_deck,
    "verify-suite": _suite_deck,
    "cli-commands": _cli_deck,
}

"""Time invariance verdicts per call, optionally against a second tree.

Run from the repository root:

    python3 tools/verdict_timing.py [BASE] [--rounds N]

The package is loaded from this checkout's ``src``.  When BASE names another
checkout (a directory with ``src/pascalinv``), that copy is loaded too, under
another module name, in the same process.  For each case and depth, each
round builds CALLS fresh inputs per tree (cold lazy images; the Bernoulli and K
caches are warmed once beforehand) and times the case's judgement of them,
the trees taking turns: ``check_invariance(x, "first", d)`` for most cases,
a first-kind power column among them, whose terms are ``compose`` entries,
and three Q(√5) inputs, whose prefixes come from ``ExpComb`` stepping: the
Binet combination 2L - 3F (neither), L (invariant) and the lazy image
``shift_up(2L - 3F)``;
for the finitely supported second-kind cases, ``PTD·(PTD·x) == x`` on a
rational x of d/8 terms, and the ``phitilde(3)`` image of a 5-term rational
x built and given its second-kind verdict inside the timed call; the
kernel call of a projection stage, ``_row_sums(qdown(), x, d)`` on the form
of an 8-term rational ``FinSupp``; and the ``NM-identity``, ``block-diag``,
``stabilization``, ``basis-eigen`` and ``basis-matrix-agreement`` checks at
depth d, judged by ``all(check(RunConfig(depth=d)))``.  The table gives the
minimum over N rounds in µs per call, and base/checkout when BASE is given.  Both
trees must then give each input the same result; the script exits 1
otherwise.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
DEPTHS = (24, 40, 56)
CALLS = 20  # fresh inputs per tree, case, depth and round


def load(src: Path, name: str):
    """The package under ``src`` imported as the top-level module ``name``."""
    pkg = src / "pascalinv"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def cases(pv):
    """Case name -> (build, judge): build(d) makes a fresh input through the
    public API, untimed, and judge(x, d) is the timed call."""
    transforms = importlib.import_module(pv.__name__ + ".transforms")
    checks = importlib.import_module(pv.__name__ + ".checks")
    sequences = importlib.import_module(pv.__name__ + ".sequences")
    geom = ((Fraction(2), Fraction(-1, 3)), (Fraction(2), Fraction(4, 3)))
    finsupp = (Fraction(1, 2), Fraction(-2, 3), 5)
    ptd, qdown = pv.ptd(), pv.qdown()

    def first(build):
        return lambda d: build(), lambda x, d: pv.check_invariance(x, "first", d)

    def binet():  # 2L - 3F over Q(√5)
        return pv.ExpComb(tuple((2 * c, r) for c, r in pv.lucas().pairs)
                          + tuple((-3 * c, r) for c, r in pv.fibonacci().pairs))

    def ptd_twice(x, d):
        return pv.apply_upper(ptd, pv.apply_upper(ptd, x)) == x

    def phitilde3(x, d):
        return pv.check_invariance(transforms.build_phi(3, "tilde").apply(x), "second", d)

    def qdown_rows(f, d):
        rows = sequences._row_sums(qdown, f, d)
        return rows.ns, rows.den

    return {
        "ExpComb 2(-1/3)^n+2(4/3)^n": first(lambda: pv.ExpComb(geom)),
        "t42c(KSeq())": first(lambda: transforms.t42c(pv.KSeq())),
        "t42d(AltBernoulli())": first(lambda: transforms.t42d(pv.AltBernoulli())),
        "KSeq()": first(pv.KSeq),
        "(P+D)^3 col 2, composed entries": first(lambda: transforms.power_column("P+D", 3, 2)),
        "psitilde(3) of a FinSupp": first(
            lambda: transforms.build_psi(3, "tilde").apply(pv.FinSupp(finsupp))
        ),
        "PTD twice on a d/8-term FinSupp": (
            lambda d: pv.FinSupp([Fraction((-1) ** k * (k + 2), k % 3 + 1) for k in range(d // 8)]),
            ptd_twice,
        ),
        "phitilde(3) of a FinSupp, second kind": (
            lambda d: pv.FinSupp(finsupp + (Fraction(-1, 6), Fraction(3, 4))),
            phitilde3,
        ),
        "Qdown rows of an 8-term FinSupp form": (
            lambda d: pv.FinSupp([Fraction(k - 3, k % 4 + 1) for k in range(8)])._held,
            qdown_rows,
        ),
        "2L-3F, Q(√5)": first(binet),
        "L, Q(√5)": first(pv.lucas),
        "shift_up(2L-3F), Q(√5)": first(lambda: pv.shift_up(binet())),
        "Bernoulli()": first(pv.Bernoulli),
        "NM-identity": (checks.RunConfig, lambda cfg, d: all(checks.check_nm_identity(cfg))),
        "block-diag": (checks.RunConfig, lambda cfg, d: all(checks.check_block_diag(cfg))),
        "stabilization": (checks.RunConfig,
                          lambda cfg, d: all(checks.check_stabilization(cfg))),
        "basis-eigen": (checks.RunConfig, lambda cfg, d: all(checks.check_basis_eigen(cfg))),
        "basis-matrix-agreement": (checks.RunConfig,
                                   lambda cfg, d: all(checks.check_basis_matrix_agreement(cfg))),
    }


def per_call_us(case, depth: int) -> tuple:
    """(µs per call, the first result) over CALLS freshly built inputs."""
    build, judge = case
    xs = [build(depth) for _ in range(CALLS)]
    t0 = perf_counter()
    results = [judge(x, depth) for x in xs]
    return (perf_counter() - t0) / CALLS * 1e6, results[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?", type=Path, help="another checkout to time against")
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args(argv)
    trees = {"checkout": load(ROOT / "src", "pascalinv_checkout")}
    if args.base is not None:
        trees = {"base": load(args.base.resolve() / "src", "pascalinv_base"), **trees}
    for pv in trees.values():
        pv.prefix(pv.KSeq(), 2 * max(DEPTHS))  # warm the Bernoulli and K caches
    built = {label: cases(pv) for label, pv in trees.items()}
    print("case | d | " + " | ".join(f"{label} µs" for label in trees)
          + (" | base/checkout" if len(trees) == 2 else ""))
    status = 0
    for case in built["checkout"]:
        for depth in DEPTHS:
            best, results = {}, {}
            for _ in range(args.rounds):
                for label in trees:
                    us, results[label] = per_call_us(built[label][case], depth)
                    best[label] = min(us, best.get(label, us))
            if len({repr(r) for r in results.values()}) != 1:
                print(f"results differ on {case} at d={depth}: {results}", file=sys.stderr)
                status = 1
            row = [case, str(depth)] + [f"{best[label]:.1f}" for label in trees]
            if len(trees) == 2:
                row.append(f"{best['base'] / best['checkout']:.2f}x")
            print(" | ".join(row))
    return status


if __name__ == "__main__":
    sys.exit(main())

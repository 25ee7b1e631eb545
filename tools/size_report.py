"""Lines and branch nodes per module of the package.

Run from the repository root:

    python3 tools/size_report.py [DIR]

DIR defaults to ``src/pascalinv``.  For each ``*.py`` file it prints the
line count (as ``wc -l`` gives it: newline characters) and the branch
nodes: ``If``, ``For``, ``While``, ``IfExp``, ``BoolOp``, ``ExceptHandler``
and ``comprehension`` nodes that lie inside a function or a lambda, each
counted once however deeply the functions nest.  The last row gives the
totals.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BRANCHES = (ast.If, ast.For, ast.While, ast.IfExp, ast.BoolOp, ast.ExceptHandler,
            ast.comprehension)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def branch_nodes(source: str) -> int:
    """The branch nodes of source inside functions and lambdas."""
    inside = set()
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, SCOPES):
            inside.update(id(n) for n in ast.walk(scope) if isinstance(n, BRANCHES))
    return len(inside)


def report(pkg: Path) -> list:
    """(module, lines, branch nodes) per file of pkg, sorted by name."""
    rows = []
    for path in sorted(pkg.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.stem, source.count("\n"), branch_nodes(source)))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    pkg = Path(args[0]) if args else ROOT / "src" / "pascalinv"
    rows = report(pkg)
    if not rows:
        print(f"no Python files in {pkg}", file=sys.stderr)
        return 1
    print("module | lines | branch nodes")
    for name, lines, branches in rows:
        print(f"{name} | {lines} | {branches}")
    print(f"total | {sum(r[1] for r in rows)} | {sum(r[2] for r in rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

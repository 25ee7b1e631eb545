"""Which package functions each benchmark workload enters.

Run from anywhere:

    python3 tools/traffic_report.py

The script line-traces ``src/pascalinv`` in one process over deck 0 (seed 1)
of each workload in ``perfbench/ops.py``, in the order of ``ops.WORKLOADS``.
A library deck runs as the benchmark's worker runs it: each operation's input
is built (``worker.build``), the operation is run (``worker.run_library_op``),
and a first-kind check's prefix is read as ``worker.emit`` reads it.  A CLI
deck runs each argv through ``pascalinv.cli.main`` in this process, with the
OEIS fixtures of ``tests/fixtures`` and an empty OEIS cache.  ``perfbench`` is
imported and never written, no bytecode included.  Before the decks, importing every module of the
package is traced as ``import``, which is not a workload.  Caches (Bernoulli
numbers, compositions) persist from one deck to the next, as they would not
across the benchmark's processes, so a later workload may skip a cold path
that an earlier one took.

It prints one row per package function (``def`` functions and methods,
nested ones too) with the workloads that enter it, then the functions that
no workload enters, each marked when only the import runs it, then the
lines that no workload runs inside the functions that some workload enters,
then the lines of the package that the decks run.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import linecache
import os
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "pascalinv"
SEED = 1
IMPORT = "import"


def functions() -> dict:
    """(file, first line, name) -> (qualified name ``module.Class.func``, code
    object) for every ``def`` of the package, read from the compiled sources."""
    out = {}

    def walk(code: CodeType, prefix: str, module: str, path: str):
        for c in code.co_consts:
            if not isinstance(c, CodeType):
                continue
            name = prefix + c.co_name
            is_def = c.co_flags & inspect.CO_OPTIMIZED and not c.co_name.startswith("<")
            if is_def:
                out[(path, c.co_firstlineno, c.co_name)] = (f"{module}.{name}", c)
            walk(c, name + (".<locals>." if c.co_flags & inspect.CO_OPTIMIZED else "."), module, path)

    for path in sorted(PKG.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "", path.stem, str(path))
    return out


class LineTrace:
    """``sys.settrace`` hooks that record, under the current label, the code
    objects entered and the lines run in the package's files."""

    def __init__(self):
        self.files = {str(p) for p in PKG.glob("*.py")}
        self.label = None
        self.entered: dict = {}  # (file, first line, name) -> set of labels
        self.lines: dict = {}  # (file, line) -> set of labels
        self.workloads: tuple = ()

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.setdefault((frame.f_code.co_filename, frame.f_lineno), set()).add(self.label)
        return self._local

    def _global(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        self.entered.setdefault((code.co_filename, code.co_firstlineno, code.co_name),
                                set()).add(self.label)
        return self._local

    @contextlib.contextmanager
    def under(self, label: str):
        self.label = label
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def trace() -> LineTrace:
    """Trace the package's import, then deck 0 of each workload."""
    sys.dont_write_bytecode = True  # perfbench is read, never written
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import ops
    import worker

    t = LineTrace()
    t.workloads = ops.WORKLOADS
    with t.under(IMPORT):
        pv = importlib.import_module("pascalinv")
        for path in sorted(PKG.glob("*.py")):
            if path.stem not in ("__init__", "__main__"):
                importlib.import_module(f"pascalinv.{path.stem}")
    main = sys.modules["pascalinv.cli"].main
    with tempfile.TemporaryDirectory() as cache:
        os.environ.update(PASCALINV_OEIS_FIXTURES=str(ROOT / "tests" / "fixtures"),
                          PASCALINV_OEIS_CACHE=cache)
        for workload in ops.WORKLOADS:
            deck = ops.deck(workload, SEED, 0)
            with t.under(workload):
                for op in deck:
                    arg = worker.build(pv, op)
                    if op[0] == "cli":
                        worker.run_cli_in_process(main, arg)
                        continue
                    out = worker.run_library_op(pv, op, arg)
                    if op[0] != "suite" and out[0] == "ok":
                        pv.prefix(arg, op[-1])
    return t


def report(t: LineTrace, fns: dict) -> list:
    """(qualified name, labels that enter it) per package function of fns
    (from :func:`functions`), in file and line order."""
    rows = []
    for key, (name, _) in sorted(fns.items()):
        labels = t.entered.get(key, set())
        rows.append((name, [w for w in (IMPORT, *t.workloads) if w in labels]))
    return rows


def _lines(code: CodeType) -> set:
    """The lines of a function's own code and of the lambdas and
    comprehensions inside it, but for its first line, which runs no
    statement of the body (a ``def`` or a decorator)."""
    out = set()
    todo = [code]
    while todo:
        c = todo.pop()
        out.update(line for _, _, line in c.co_lines() if line is not None)
        todo += [k for k in c.co_consts if isinstance(k, CodeType) and k.co_name.startswith("<")]
    return out - {code.co_firstlineno}


def unrun(t: LineTrace, fns: dict) -> list:
    """(qualified name, line, source) for each line that no workload runs in
    a function of fns that some workload enters, in file and line order."""
    out = []
    for key, (name, code) in sorted(fns.items()):
        if not t.entered.get(key, set()) - {IMPORT}:
            continue
        for line in sorted(_lines(code)):
            if not t.lines.get((key[0], line), set()) - {IMPORT}:
                out.append((name, line, linecache.getline(key[0], line).strip()))
    return out


def main() -> int:
    t = trace()
    fns = functions()
    rows = report(t, fns)
    print("function | workloads")
    for name, labels in rows:
        print(f"{name} | {' '.join(w for w in labels if w != IMPORT)}")
    idle = [(name, labels) for name, labels in rows if labels in ([], [IMPORT])]
    print(f"\nentered by no workload: {len(idle)} of {len(rows)} functions")
    for name, labels in idle:
        print(f"  {name}{' (import only)' if labels else ''}")
    cold = unrun(t, fns)
    print(f"\nrun by no workload in a function some workload enters: {len(cold)} lines")
    for name, line, source in cold:
        print(f"  {name}:{line}  {source}")
    run = [labels for labels in t.lines.values() if set(labels) - {IMPORT}]
    print(f"\nlines run by the decks: {len(run)}")
    for w in t.workloads:
        print(f"  {w}: {sum(w in labels for labels in run)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer wrapped around pascalinv's public functions from outside.

``Tracer.install`` runs in the traced worker after ``import pascalinv`` and
changes no file of the package.  It replaces every public function of the
traced modules, wherever a pascalinv module (or a dict or list at its top
level) refers to it, with a wrapper that records a span.  It also wraps the
``term`` methods of the sequence classes, ``Pipeline.apply``, and the entry
oracle of every ``TriOp`` built after installation.  A span keeps its name,
start, end, parent and operation id in memory; ``write`` dumps them at the
end.  A span's self time is its duration minus the time its child spans and
the scalar calls made directly inside it cover.

The scalar layer (``QuadExt`` and ``Fraction`` arithmetic and the
``pascalinv.scalars`` functions) records counts and the time of outermost
scalar calls only, because those methods run millions of times per run.
"""
from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("scalars", "sequences", "operators", "eigenstructure", "transforms", "checks", "cli")
QUADEXT_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse", "norm", "conjugate",
)
FRACTION_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__rpow__", "__abs__",
)
SEQ_CLASSES = ("FinSupp", "ExpComb", "Bernoulli", "AltBernoulli", "KSeq", "Lazy")
# Thin forwarders whose callee already records the span.
SKIP = {("sequences", "term")}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.self_s: list = []
        self.outer_s: list = []
        self._active: list = []
        self.errors = Counter()
        # spans, appended when they end: serial, parent serial, op, name, start, end
        self.serial = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._next_serial = 0
        self._stack: list = []  # frames: [serial, covered seconds, layer]
        self.op_id = -1
        self.scalar = [0, 0, 0.0]  # QuadExt ops, Fraction ops, outermost scalar seconds
        self._scalar_busy = [False]
        self._term_pairs: dict = {}
        self.distinct_terms = 0
        self.caches: list = []  # [hits, misses, currsize] per composed entry cache

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.outer_s.append(0.0)
            self._active.append(0)
        return self._ids[name]

    def begin_op(self, op_id: int) -> None:
        self.distinct_terms += len(self._term_pairs)
        self._term_pairs.clear()
        self.op_id = op_id

    def finish(self) -> None:
        self.begin_op(-1)

    def reset(self) -> None:
        """Forget what was recorded so far (e.g. while building inputs)."""
        for table in (self.calls, self.self_s, self.outer_s):
            table[:] = [0] * len(table)
        for arr in (self.serial, self.parent, self.op, self.name, self.start, self.end):
            del arr[:]
        self.errors.clear()
        self.scalar[:] = [0, 0, 0.0]
        self._term_pairs.clear()
        self.distinct_terms = 0
        for stats in self.caches:
            stats[:] = [0, 0, 0]

    # --- wrappers -------------------------------------------------------

    def span(self, name: str, fn):
        nid = self._id(name)
        layer = name.split(".", 1)[0]
        stack, calls, self_s, outer_s, active = (
            self._stack, self.calls, self.self_s, self.outer_s, self._active,
        )

        def traced(*args, **kwargs):
            serial = self._next_serial
            self._next_serial = serial + 1
            parent = stack[-1][0] if stack else -1
            frame = [serial, 0.0, layer]
            stack.append(frame)
            active[nid] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if len(stack) < 2 or stack[-2][2] != layer:
                    self.errors[layer] += 1  # the exception leaves this layer
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                active[nid] -= 1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if not active[nid]:
                    outer_s[nid] += dur
                if stack:
                    stack[-1][1] += dur
                self.serial.append(serial)
                self.parent.append(parent)
                self.op.append(self.op_id)
                self.name.append(nid)
                self.start.append(t0)
                self.end.append(t1)

        traced.__wrapped__ = fn
        traced._traced = True
        return traced

    def scalar_op(self, slot, fn):
        """Count a scalar call; time it only when no scalar call encloses it."""
        counts, busy, stack = self.scalar, self._scalar_busy, self._stack

        def traced(*args):
            if slot is not None:
                counts[slot] += 1
            if busy[0]:
                return fn(*args)
            busy[0] = True
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                busy[0] = False
                counts[2] += dt
                if stack:
                    stack[-1][1] += dt

        traced.__wrapped__ = fn
        return traced

    def term_method(self, fn):
        traced = self.span("sequences.term", fn)
        pairs = self._term_pairs

        def term(seq, n):
            key = (id(seq), n)
            if key not in pairs:
                pairs[key] = seq  # held until the op ends, so ids are not reused
            return traced(seq, n)

        return term

    def entry(self, fn):
        if getattr(fn, "_traced", False):
            return fn
        traced = self.span("operators.entry", fn)
        info = getattr(fn, "cache_info", None)
        if info is None:
            return traced
        stats = [0, 0, 0]
        self.caches.append(stats)

        def cached(i, j):
            try:
                return traced(i, j)
            finally:
                ci = info()
                stats[0], stats[1], stats[2] = ci.hits, ci.misses, ci.currsize

        cached._traced = True
        return cached

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        import pascalinv.checks
        import pascalinv.cli  # noqa: F401  (loads every traced module)

        mods = {layer: sys.modules[f"pascalinv.{layer}"] for layer in LAYERS}
        swaps = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (
                    name.startswith("_")
                    or (layer, name) in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                if layer == "scalars":
                    swaps[id(obj)] = (obj, self.scalar_op(None, obj))
                else:
                    swaps[id(obj)] = (obj, self.span(f"{layer}.{name}", obj))

        def swap(value):
            hit = swaps.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for modname, mod in list(sys.modules.items()):
            if modname != "pascalinv" and not modname.startswith("pascalinv."):
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(value, dict):
                    for k, v in value.items():
                        value[k] = [swap(x) for x in v] if isinstance(v, list) else swap(v)
                elif isinstance(value, list):
                    value[:] = [swap(x) for x in value]
                else:
                    new = swap(value)
                    if new is not value:
                        setattr(mod, attr, new)

        quad = mods["scalars"].QuadExt
        for meth in QUADEXT_METHODS:
            setattr(quad, meth, self.scalar_op(0, quad.__dict__[meth]))
        for meth in FRACTION_METHODS:
            setattr(Fraction, meth, self.scalar_op(1, Fraction.__dict__[meth]))

        seqs = mods["sequences"]
        for cls_name in SEQ_CLASSES:
            cls = getattr(seqs, cls_name)
            cls.term = self.term_method(cls.__dict__["term"])
        pipeline = mods["transforms"].Pipeline
        pipeline.apply = self.span("transforms.pipeline_apply", pipeline.apply)

        tri = mods["operators"].TriOp
        plain_init = tri.__init__
        wrap_entry = self.entry

        def init(op, band, entry, label, tag=None):
            plain_init(op, band, wrap_entry(entry), label, tag)

        tri.__init__ = init
        # Pipeline stages built at import time hold their operator in a closure.
        for value in vars(mods["transforms"]).values():
            if isinstance(value, mods["transforms"].Stage):
                for cell in value.run.__closure__ or ():
                    op = cell.cell_contents
                    if isinstance(op, tri):
                        cell.cell_contents = tri(op.band, op.entry, op.label, op.tag)

    # --- results --------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.self_s[nid]
        out["scalars"] += self.scalar[2]
        return out

    def get(self, table: list, name: str):
        nid = self._ids.get(name)
        return table[nid] if nid is not None else 0

    def write(self, path) -> None:
        """One JSON header line (span names, columns, count), then the columns as raw arrays."""
        columns = (self.serial, self.parent, self.op, self.name, self.start, self.end)
        header = {
            "names": self.names,
            "columns": ["serial", "parent", "op", "name", "start", "end"],
            "typecodes": [a.typecode for a in columns],
            "spans": len(self.serial),
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in columns:
                arr.tofile(fh)

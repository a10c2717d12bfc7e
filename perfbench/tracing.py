"""Outside-in trace of superflip's six layers, installed from the benchmark's own files.

Nothing under ``src/`` knows about this trace.  ``Tracer`` replaces, for
the duration of one top-level call:

- every public module-level function of ``torus``, ``markoff``,
  ``osp12``, ``identity`` and ``cli``, in every superflip namespace that
  binds it (``identity`` binds ``enumerate_regions``, ``markoff`` binds
  ``flip`` and ``semi_perimeter``), by a span;
- ``numpy.linalg.lstsq`` as reached from ``osp12`` (its Newton solve), by a
  span named ``osp12.lstsq``;
- the arithmetic dunders of ``GrassmannNumber`` (including the aliases
  ``__radd__`` and ``__rmul__``) and its inverse, sqrt and analytic
  methods, by element operations.  These run about 40k times per call,
  so they are aggregated in memory per (operation, parent span) instead
  of being kept one by one.  grassmann's module-level functions only
  forward to these methods and are not wrapped.

A span records its id, its parent's id, the call it belongs to, its
duration and its self time: the duration minus the intervals its child
spans cover.  A child covers its whole wrapper, bookkeeping included, so
tracing overhead lands in no one's self time and self times sum to no
more than the traced wall time.  Counts (sink steps, regions, products'
coefficient pairs, bytes written) are taken after the timed interval.

A public name that no longer exists is simply not wrapped, so its
counters read 0.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import os
import time
from collections import defaultdict

LAYERS = ("grassmann", "torus", "markoff", "osp12", "identity", "cli")

# GrassmannNumber attribute -> operation group
ELEMENT_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add", "__neg__": "add",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow",
    "inverse": "inverse", "sqrt": "sqrt",
    "exp": "analytic", "log": "analytic", "cosh": "analytic", "sinh": "analytic", "arcosh": "analytic",
}

# Per-layer metrics, each a mean per top-level call unless it is a ratio.
PER_LAYER = [
    ("grassmann.self_s", "s"),
    ("grassmann.mul.calls", "count"),
    ("grassmann.mul.self_s", "s"),
    ("grassmann.mul.pairs", "count"),
    ("grassmann.mul.disjoint_ratio", "ratio"),
    ("grassmann.mul.terms_mean", "count"),
    ("grassmann.add.calls", "count"),
    ("grassmann.add.self_s", "s"),
    ("grassmann.inverse.calls", "count"),
    ("grassmann.inverse.self_s", "s"),
    ("grassmann.sqrt.calls", "count"),
    ("grassmann.sqrt.self_s", "s"),
    ("grassmann.analytic.calls", "count"),
    ("grassmann.analytic.self_s", "s"),
    ("torus.self_s", "s"),
    ("torus.flip.calls", "count"),
    ("torus.flip.self_s", "s"),
    ("torus.semi_perimeter.calls", "count"),
    ("torus.semi_perimeter.self_s", "s"),
    ("markoff.self_s", "s"),
    ("markoff.find_sink.self_s", "s"),
    ("markoff.sink_steps", "count"),
    ("markoff.enumerate_regions.self_s", "s"),
    ("markoff.regions", "count"),
    ("markoff.frontier", "count"),
    ("markoff.kept_ratio", "ratio"),
    ("osp12.self_s", "s"),
    ("osp12.build_generators.self_s", "s"),
    ("osp12.smul.calls", "count"),
    ("osp12.smul.self_s", "s"),
    ("osp12.adjoint.calls", "count"),
    ("osp12.adjoint.self_s", "s"),
    ("osp12.lstsq.calls", "count"),
    ("identity.self_s", "s"),
    ("identity.verify_identity.self_s", "s"),
    ("identity.summand_region.calls", "count"),
    ("identity.summand_region.self_s", "s"),
    ("identity.body_soul_report.self_s", "s"),
    ("identity.growth_count.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.call_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _support(x) -> list[int] | None:
    """Bitmasks of the stored coefficients of a Grassmann element, if readable."""
    c = getattr(x, "_c", None)
    if isinstance(c, dict):
        return list(c)
    terms = getattr(x, "terms", None)
    if terms is None:
        return None
    return [sum(1 << (i - 1) for i in idx) for idx, _ in terms()]


def _count_sink(tracer, args, kwargs, result) -> None:
    tracer.counts["markoff.sink_steps"] += getattr(result, "steps", 0)


def _count_regions(tracer, args, kwargs, result) -> None:
    if isinstance(result, tuple):
        regions, frontier = result[0], result[1]
    else:
        regions, frontier = result, ()
    tracer.counts["markoff.regions"] += len(regions)
    tracer.counts["markoff.frontier"] += len(frontier)


def _count_cli_bytes(tracer, args, kwargs, result) -> None:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    for flag, path in zip(argv, argv[1:]):
        if flag in ("--out", "--csv") and os.path.exists(path):
            tracer.counts["cli.bytes_written"] += os.path.getsize(path)


COUNTERS = {
    "markoff.find_sink": _count_sink,
    "markoff.enumerate_regions": _count_regions,
    "cli.main": _count_cli_bytes,
}


class Tracer:
    """Spans and element-operation aggregates of the calls made under ``traced_call``."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, call_id, name, duration_s, self_s)
        self.ops = {}  # (op, parent span name) -> [calls, self_s, pairs, disjoint, terms, measured]
        self.counts = defaultdict(float)
        self.calls = []  # (call_id, traced wall time)
        self._stack = []  # frames: [child_s, name, span_id]
        self._ids = itertools.count(1)
        self._disjoint = {}
        self.call_id = 0
        self._patches = self._plan()

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _plan(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"superflip.{layer}")
            except ImportError:
                continue
        namespaces = list(modules.values()) + [importlib.import_module("superflip")]
        patches = []
        for layer, mod in modules.items():
            if layer == "grassmann":
                continue
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                span = f"{layer}.{name}"
                wrapper = self._span_wrapper(span, fn, COUNTERS.get(span))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            patches.append((ns, attr, fn, wrapper))
        linalg = getattr(getattr(modules.get("osp12"), "np", None), "linalg", None)
        lstsq = getattr(linalg, "lstsq", None)
        if lstsq is not None:
            patches.append((linalg, "lstsq", lstsq, self._span_wrapper("osp12.lstsq", lstsq, None)))
        cls = getattr(modules.get("grassmann"), "GrassmannNumber", None)
        for attr, group in ELEMENT_OPS.items():
            fn = cls.__dict__.get(attr) if cls is not None else None
            if inspect.isfunction(fn):
                wrapper = self._op_wrapper(f"grassmann.{group}", fn, attr == "__mul__")
                patches.append((cls, attr, fn, wrapper))
        return patches

    def _span_wrapper(self, name, fn, counter):
        stack, spans, ids, perf = self._stack, self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            t_in = perf()
            parent = stack[-1]
            frame = [0.0, name, next(ids)]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            spans.append((frame[2], parent[2], self.call_id, name, t1 - t0, t1 - t0 - frame[0]))
            if counter is not None:
                counter(self, args, kwargs, result)
            parent[0] += perf() - t_in
            return result

        return wrapper

    def _op_wrapper(self, name, fn, measure):
        stack, ops, perf = self._stack, self.ops, time.perf_counter

        def wrapper(*args):
            t_in = perf()
            parent = stack[-1]
            frame = [0.0, name, parent[2]]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args)
            finally:
                t1 = perf()
                stack.pop()
            key = (name, parent[1])
            rec = ops.get(key)
            if rec is None:
                rec = ops[key] = [0, 0.0, 0, 0, 0, 0]
            rec[0] += parent[1] != name  # __rmul__ and __rsub__ delegate within one operation
            rec[1] += t1 - t0 - frame[0]
            if measure:
                self._measure_product(rec, args, result)
            parent[0] += perf() - t_in
            return result

        return wrapper

    def _measure_product(self, rec, args, result) -> None:
        out = _support(result)
        if out is None:
            return
        rec[4] += len(out)
        rec[5] += 1
        other = args[1] if len(args) > 1 else None
        if isinstance(other, (int, float)):
            return  # scaling by a number has no coefficient pairs
        a, b = _support(args[0]), _support(other)
        if a is None or b is None:
            return
        rec[2] += len(a) * len(b)
        key = (sum(1 << m for m in a), sum(1 << m for m in b))
        hit = self._disjoint.get(key)
        if hit is None:
            hit = self._disjoint[key] = sum(1 for ma in a for mb in b if not ma & mb)
        rec[3] += hit

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def traced_call(self, fn, *args):
        """Run ``fn(*args)`` as one top-level call with every wrapper installed."""
        self.call_id = len(self.calls) + 1
        root = [0.0, "call", 0]
        self._stack[:] = [root]
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - t0
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._stack.clear()
            self.calls.append((self.call_id, wall))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def self_times(self) -> dict:
        """Per span or operation name: [calls, self seconds], over all calls."""
        out = defaultdict(lambda: [0, 0.0])
        for _, _, _, name, _, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        for (name, _), rec in self.ops.items():
            out[name][0] += rec[0]
            out[name][1] += rec[1]
        return out

    def check_invariants(self) -> list[str]:
        """Self times are non-negative and sum to no more than the traced wall time."""
        problems = []
        negative = [s for s in self.spans if s[5] < -1e-12]
        negative += [k for k, rec in self.ops.items() if rec[1] < -1e-9]
        if negative:
            problems.append(f"{len(negative)} negative self times, e.g. {negative[0]}")
        total_self = sum(s[5] for s in self.spans) + sum(rec[1] for rec in self.ops.values())
        wall = sum(w for _, w in self.calls)
        if total_self > wall + 1e-9:
            problems.append(f"self times sum to {total_self!r} s > traced wall {wall!r} s")
        return problems

    def metrics(self, overhead_ratio: float) -> dict:
        """Every PER_LAYER metric, as {name: (value, unit)}; the caller measures the overhead."""
        calls = max(len(self.calls), 1)
        wall = sum(w for _, w in self.calls)
        by_name = self.self_times()
        layer_self = defaultdict(float)
        for name, (_, self_s) in by_name.items():
            layer_self[name.split(".")[0]] += self_s
        mul = [0, 0.0, 0, 0, 0, 0]
        for (name, _), rec in self.ops.items():
            if name == "grassmann.mul":
                mul = [x + y for x, y in zip(mul, rec)]
        regions, frontier = self.counts["markoff.regions"], self.counts["markoff.frontier"]
        values = {
            "grassmann.mul.pairs": mul[2] / calls,
            "grassmann.mul.disjoint_ratio": mul[3] / mul[2] if mul[2] else 0.0,
            "grassmann.mul.terms_mean": mul[4] / mul[5] if mul[5] else 0.0,
            "markoff.kept_ratio": regions / (regions + frontier) if regions + frontier else 0.0,
            "trace.call_s": wall / calls,
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
            elif name in self.counts:
                value = self.counts[name] / calls
            elif name.endswith(".calls"):
                value = by_name.get(name[: -len(".calls")], (0, 0.0))[0] / calls
            elif name.count(".") == 1 and name.endswith(".self_s"):
                value = layer_self[name.split(".")[0]] / calls
            elif name.endswith(".self_s"):
                value = by_name.get(name[: -len(".self_s")], (0, 0.0))[1] / calls
            else:
                value = 0.0
            out[name] = (value, unit)
        return out

    def summary(self, limit: int = 25) -> list[str]:
        """The largest self times per (span or operation, parent), per call."""
        calls = max(len(self.calls), 1)
        names = {s[0]: s[3] for s in self.spans}
        rows = defaultdict(lambda: [0, 0.0])
        for _, parent_id, _, name, _, self_s in self.spans:
            key = (name, names.get(parent_id, "call"))
            rows[key][0] += 1
            rows[key][1] += self_s
        for key, rec in self.ops.items():
            rows[key][0] += rec[0]
            rows[key][1] += rec[1]
        top = sorted(rows.items(), key=lambda kv: -kv[1][1])[:limit]
        return [
            f"  {name:<34} under {parent:<32} calls/call {n / calls:>10.1f}  self/call {s / calls:.6f} s"
            for (name, parent), (n, s) in top
        ]

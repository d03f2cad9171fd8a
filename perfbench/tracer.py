"""Spans around every call into the public functions of each pathideal layer.

`install(tracer)` replaces each public function of the layer modules by a
wrapper that records a span, under every name the function is looked up by:
the defining module, every module that bound it with `from ... import`, and
the package root that re-exports it.  Class methods of `MonomialIdeal` are
patched on the class, aliases (`__pow__ = power`) included.

`monomial` is deliberately not wrapped: its methods run millions of times
inside `ideal` and `decomposition`, so wrapping them would measure the
tracer.  Its cost shows in its callers' self time.  `cli` is not wrapped
either; the workloads call what it calls.

Spans are kept per thread in memory.  A span that opens with an empty stack
on a worker thread is adopted, at analysis time, by the innermost main-thread
span that was open when it started (for `grid_scan`, the pool's caller).  A
span's self time is its duration minus the union of its children's intervals,
which stays exact when adopted children overlap each other.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("ideal", "decomposition", "pathfamily", "closedform", "verify")

# The algebra operations of the ideal layer.  Membership (`contains`) and the
# splitting helper `_with_generator` run once per generator or node and are
# left to their callers' self time, like `monomial`.
IDEAL_METHODS = (
    "sum",
    "product",
    "power",
    "intersect",
    "colon_monomial",
    "colon_ideal",
    "radical",
    "is_subset",
)

# Result sizes recorded as counts on the span.
COUNTERS = {
    "ideal.power": lambda ideal: len(ideal.gens),
    "decomposition.irreducible_decomposition": len,
}

# span fields
NAME, LAYER, START, END, PARENT, LABEL, COUNT, OUTER = range(8)


class Tracer:
    """Collects spans from every thread that calls a wrapped function."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[bool, list]] = []
        self._label = None

    @contextmanager
    def label(self, name: str):
        """Tag spans opened inside the block (e.g. with the cell they belong to)."""
        previous, self._label = self._label, name
        try:
            yield
        finally:
            self._label = previous

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            with self._lock:
                self._threads.append(
                    (threading.current_thread() is threading.main_thread(), local.spans)
                )
        return local.stack, local.spans

    def wrap(self, fn, name: str, layer: str):
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = tracer._thread_state()
            outer = all(spans[i][NAME] != name for i in stack)
            span = [name, layer, 0, 0, stack[-1] if stack else None, tracer._label, 0, outer]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = perf_counter_ns()
            try:
                value = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if count is not None:
                span[COUNT] = count(value)
            return value

        return traced

    def spans(self) -> list[list]:
        """All spans as [name, layer, start, end, parent, label, count, outer,
        children], parents re-indexed into this one list."""
        out: list[list] = []
        main: list[int] = []
        roots: list[int] = []
        for is_main, spans in self._threads:
            base = len(out)
            for span in spans:
                parent = span[PARENT]
                copy = span + [[]]
                copy[PARENT] = None if parent is None else parent + base
                out.append(copy)
                index = len(out) - 1
                if parent is not None:
                    out[parent + base][-1].append(index)
                elif not is_main:
                    roots.append(index)
                if is_main:
                    main.append(index)
        for index in roots:
            start = out[index][START]
            holders = [m for m in main if out[m][START] <= start <= out[m][END]]
            if holders:
                parent = min(holders, key=lambda m: out[m][END] - out[m][START])
                out[index][PARENT] = parent
                out[parent][-1].append(index)
        return out


def self_time_ns(spans: list[list], index: int) -> int:
    span = spans[index]
    intervals = sorted(
        (max(spans[c][START], span[START]), min(spans[c][END], span[END])) for c in span[-1]
    )
    covered = 0
    cursor = span[START]
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span[END] - span[START] - covered


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules, under every name it is bound to."""
    package = sys.modules["pathideal"]
    modules = [package] + [m for name, m in sorted(sys.modules.items()) if name.startswith("pathideal.")]
    wrapped: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = sys.modules[f"pathideal.{layer}"]
        for name, obj in vars(module).items():
            is_function = inspect.isfunction(obj) or hasattr(obj, "cache_info")
            if name.startswith("_") or not is_function or obj.__module__ != module.__name__:
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{name}", layer))
    for module in modules:
        for name, obj in list(vars(module).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, name, entry[1])

    ideal_class = sys.modules["pathideal.ideal"].MonomialIdeal
    for method in IDEAL_METHODS:
        original = ideal_class.__dict__[method]
        wrapper = tracer.wrap(original, f"ideal.{method}", "ideal")
        for attr, value in list(ideal_class.__dict__.items()):
            if value is original:
                setattr(ideal_class, attr, wrapper)


# -- per-layer metrics ------------------------------------------------------------

DECOMPOSE = "decomposition.irreducible_decomposition"
GRID_SCAN = "verify.grid_scan"
VERIFY_CELL = "verify.verify_cell"
HEAVY_LABELS = ("7_2_4", "12_5_2")

# name, unit, better, source.  The source is what must have been seen for the
# value to mean anything: a span name, a span name and its label, or a layer
# (any span of it).  None: computed by the caller.
PER_LAYER = (
    ("decomposition.decompose_s", "s", "lower", DECOMPOSE),
    *((f"decomposition.decompose_s.{label}", "s", "lower", f"{DECOMPOSE}@{label}") for label in HEAVY_LABELS),
    ("decomposition.nodes", "count", "lower", DECOMPOSE),
    ("decomposition.cache_hits", "count", "higher", DECOMPOSE),
    ("decomposition.hit_ratio", "ratio", "higher", DECOMPOSE),
    ("decomposition.nodes_per_s", "1/s", "higher", DECOMPOSE),
    ("decomposition.cache_entries", "count", "lower", DECOMPOSE),
    ("decomposition.components", "count", "lower", DECOMPOSE),
    ("decomposition.witness_s", "s", "lower", "decomposition.verify_witness"),
    ("decomposition.intersect_components_s", "s", "lower", "decomposition.intersect_components"),
    ("decomposition.oracle_s", "s", "lower", "decomposition.minimal_primes_squarefree"),
    ("decomposition.self_s", "s", "lower", "decomposition"),
    ("decomposition.calls", "count", "lower", "decomposition"),
    ("ideal.power_s", "s", "lower", "ideal.power"),
    ("ideal.power_gens", "count", "lower", "ideal.power"),
    ("ideal.colon_s", "s", "lower", "ideal.colon_monomial"),
    ("ideal.subset_s", "s", "lower", "ideal.is_subset"),
    ("ideal.intersect_s", "s", "lower", "ideal.intersect"),
    ("ideal.intersect_calls", "count", "lower", "ideal.intersect"),
    ("ideal.self_s", "s", "lower", "ideal"),
    ("ideal.calls", "count", "lower", "ideal"),
    ("closedform.predict_s", "s", "lower", "closedform.predicted_ass"),
    ("closedform.witness_monomial_s", "s", "lower", "closedform.witness_monomial"),
    ("closedform.self_s", "s", "lower", "closedform"),
    ("closedform.calls", "count", "lower", "closedform"),
    ("pathfamily.ind_ideal_s", "s", "lower", "pathfamily.ind_ideal"),
    ("pathfamily.self_s", "s", "lower", "pathfamily"),
    ("pathfamily.calls", "count", "lower", "pathfamily"),
    ("verify.self_s", "s", "lower", "verify"),
    ("verify.calls", "count", "lower", "verify"),
    ("verify.cells", "count", "lower", VERIFY_CELL),
    ("verify.cell_s.sum", "s", "lower", VERIFY_CELL),
    ("verify.cell_s.max", "s", "lower", VERIFY_CELL),
    ("verify.overlap", "ratio", "higher", VERIFY_CELL),
    ("bench.trace_overhead_ratio", "ratio", "lower", None),
)

# Sources each workload must produce.  One the traced process never saw (say,
# because the work moved into worker processes) makes every metric read from
# it missing rather than zero.  A metric whose source a workload neither
# expects nor produces is left out: that workload does not measure it.  The
# per-cell sources of decompose_heavy are not listed, because the self-test's
# scaled-down cells carry other labels.
EXPECTED_SOURCES = {
    "scan_default": (GRID_SCAN, VERIFY_CELL, DECOMPOSE, "ideal.power", "closedform.predicted_ass"),
    "decompose_heavy": (DECOMPOSE, "ideal.power", "closedform.predicted_ass"),
    "witness_sweep": ("decomposition.verify_witness", "ideal.power", "closedform.witness_monomial"),
    "fuzz_roundtrip": (DECOMPOSE, "decomposition.intersect_components", "decomposition.minimal_primes_squarefree"),
}

def layer_metrics(tracer: Tracer, counters: dict, workload: str) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, and the names that are missing.

    Only metrics whose source the run produced are returned.
    `bench.trace_overhead_ratio` needs an untraced run and is left to the caller.
    """
    spans = tracer.spans()
    by_name: dict[str, list[int]] = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)
        layer_self[span[LAYER]] += self_time_ns(spans, index)
        layer_calls[span[LAYER]] += 1

    def outer(name, label=None):
        return [
            spans[i] for i in by_name.get(name, ())
            if spans[i][OUTER] and (label is None or spans[i][LABEL] == label)
        ]

    def total_s(name, label=None):
        return sum(s[END] - s[START] for s in outer(name, label)) / 1e9

    decompose_s = total_s(DECOMPOSE)
    nodes = counters["decomposition.nodes"]
    hits = counters["decomposition.cache_hits"]
    cells = [s[END] - s[START] for s in outer(VERIFY_CELL)]
    scan_ns = sum(s[END] - s[START] for s in outer(GRID_SCAN))
    values = {
        "decomposition.decompose_s": decompose_s,
        **{f"decomposition.decompose_s.{label}": total_s(DECOMPOSE, label) for label in HEAVY_LABELS},
        "decomposition.nodes": nodes,
        "decomposition.cache_hits": hits,
        "decomposition.hit_ratio": hits / (hits + nodes) if nodes else 0.0,
        "decomposition.nodes_per_s": nodes / decompose_s if decompose_s else 0.0,
        "decomposition.cache_entries": counters["decomposition.cache_entries"],
        "decomposition.components": sum(s[COUNT] for s in outer(DECOMPOSE)),
        "decomposition.witness_s": sum(
            self_time_ns(spans, i) for i in by_name.get("decomposition.verify_witness", ())
        ) / 1e9,
        "decomposition.intersect_components_s": total_s("decomposition.intersect_components"),
        "decomposition.oracle_s": total_s("decomposition.minimal_primes_squarefree"),
        "ideal.power_s": total_s("ideal.power"),
        "ideal.power_gens": sum(s[COUNT] for s in outer("ideal.power")),
        "ideal.colon_s": total_s("ideal.colon_monomial"),
        "ideal.subset_s": total_s("ideal.is_subset"),
        "ideal.intersect_s": total_s("ideal.intersect"),
        "ideal.intersect_calls": len(by_name.get("ideal.intersect", ())),
        "closedform.predict_s": total_s("closedform.predicted_ass"),
        "closedform.witness_monomial_s": total_s("closedform.witness_monomial"),
        "pathfamily.ind_ideal_s": total_s("pathfamily.ind_ideal"),
        "verify.cells": len(cells),
        "verify.cell_s.sum": sum(cells) / 1e9,
        "verify.cell_s.max": max(cells, default=0) / 1e9,
        "verify.overlap": sum(cells) / scan_ns if scan_ns else 0.0,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer] / 1e9
        values[f"{layer}.calls"] = layer_calls[layer]

    seen = set(by_name) | {layer for layer in LAYERS if layer_calls[layer]}
    seen |= {f"{span[NAME]}@{span[LABEL]}" for span in spans if span[LABEL] is not None}
    expected = set(EXPECTED_SOURCES[workload])
    expected |= {source.split(".")[0] for source in expected}
    metrics, missing = {}, []
    for name, unit, _, source in PER_LAYER:
        if source in seen:
            metrics[name] = {"value": values[name], "unit": unit}
        elif source in expected:
            missing.append(name)
    return metrics, missing

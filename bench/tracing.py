"""Spans around the calls into each hermpd layer, recorded from outside.

``Tracer.install`` replaces every public hermpd function at every module
attribute that names it, which covers both the definition site (calls inside
the defining module and ``module.func`` calls) and each ``from .x import f``
import site.  numpy's dense decompositions are wrapped on ``numpy.linalg``.
The layer of a span is the module that defines the function; functions of
``hermpd.cli`` itself stay unwrapped, so their time is the root span's own.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written once, when the run ends.  Self time is a span's duration minus the
durations of its direct children, accumulated as spans close.
"""

from __future__ import annotations

import types
from array import array
from time import perf_counter

import numpy as np

NUMPY_DECOMPOSITIONS = ("eigvalsh", "eigh", "svd")

# result -> work count, recorded at the span boundary where the work happens
COUNTS = {
    "kernel.kernel_gram": lambda gram: gram.n * gram.n,
    "construction.build_counterexample": lambda witness: len(witness.points),
    "oracle.collocation": lambda coll: len(coll.exponents),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls = array("q")
        self.self_s = array("d")
        self.total_s = array("d")
        self.counts = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
            for arr in (self.calls, self.counts):
                arr.append(0)
            for arr in (self.self_s, self.total_s):
                arr.append(0.0)
        return idx

    def call(self, name_idx: int, fn, args=(), kwargs=None):
        """Run fn inside a span; the span closes even when fn raises."""
        span = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span, 0.0]
        self._stack.append(frame)
        self.span_name.append(name_idx)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self.span_end[span] = end
            self._stack.pop()
            duration = end - start
            self.calls[name_idx] += 1
            self.total_s[name_idx] += duration
            self.self_s[name_idx] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
        count = COUNTS.get(self.names[name_idx])
        if count is not None:
            try:
                self.counts[name_idx] += count(result)
            except (AttributeError, TypeError):
                pass  # the result no longer has the counted shape: the count reads 0
        return result

    def _wrapper(self, fn, name: str):
        idx = self.name_id(name)
        call = self.call

        def traced(*args, **kwargs):
            return call(idx, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> None:
        """Wrap public hermpd functions at every attribute of the given modules."""
        wrappers: dict[object, object] = {}
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if not isinstance(fn, types.FunctionType) or attr.startswith("_"):
                    continue
                home = fn.__module__ or ""
                if not home.startswith("hermpd.") or home == "hermpd.cli":
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrapper(fn, f"{home.split('.', 1)[1]}.{fn.__name__}")
                self._patch(module, attr, wrappers[fn])
        for attr in NUMPY_DECOMPOSITIONS:
            fn = getattr(np.linalg, attr)
            self._patch(np.linalg, attr, self._wrapper(fn, f"linalg.numpy.{attr}"))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# --- per-layer metrics ------------------------------------------------------------

LAYERS = ("exponents", "kernel", "linalg", "construction", "oracle", "selftest", "sampling", "cli")
CALLS = (
    "exponents.check_strict_criterion",
    "exponents.residue_coverage",
    "exponents.members_upto",
    "kernel.eval_kernel",
    "kernel.kernel_gram",
    "construction.build_counterexample",
    "oracle.quadratic_form",
)
SELF = CALLS + (
    "exponents.spec_from_json",
    "kernel.psd_check",
    "kernel.truncation_tail_mass",
    "kernel.points_from_json",
    "kernel.model_from_json",
    "kernel.gram_to_json",
    "linalg.hermitian_eigen",
    "linalg.rank_factor",
    "linalg.nullspace_vector",
    "linalg.unitary_complete",
    "construction.split_gram",
    "construction.witness_to_json",
    "oracle.strictness_oracle",
    "oracle.collocation",
)
GRID16_SIZES = (8, 32, 64)


class TaggedCost:
    """Inclusive time of one span name, summed over requests with a given tag."""

    def __init__(self, tracer: Tracer, span: str):
        self.tracer = tracer
        self.idx = tracer.name_id(span)
        self.last = 0.0
        self.totals: dict[str, list[float]] = {}  # tag -> [seconds, requests]

    def after_request(self, tag) -> None:
        now = self.tracer.total_s[self.idx]
        if tag is not None:
            entry = self.totals.setdefault(tag, [0.0, 0])
            entry[0] += now - self.last
            entry[1] += 1
        self.last = now

    def ms_per_request(self, tag: str) -> float:
        seconds, count = self.totals.get(tag, (0.0, 0))
        return seconds * 1000 / count if count else 0.0


def layer_metrics(tracer: Tracer, check_names, latencies, report_bytes, kernel_gram: TaggedCost, criterion: TaggedCost):
    """Per-request means over the traced requests, grouped by layer."""
    requests = len(latencies)
    ms = 1000.0 / requests
    stats = {name: (tracer.calls[i], tracer.self_s[i], tracer.total_s[i], tracer.counts[i]) for i, name in enumerate(tracer.names)}
    absent = (0, 0.0, 0.0, 0)

    def layer_sum(prefix: str, field: int) -> float:
        return sum(v[field] for name, v in stats.items() if name.startswith(prefix + "."))

    metrics = {}
    for layer in LAYERS:
        for name in SELF:
            if name.startswith(layer + "."):
                if name in CALLS:
                    metrics[f"{name}.calls"] = (stats.get(name, absent)[0] / requests, "count")
                metrics[f"{name}.self_ms"] = (stats.get(name, absent)[1] * ms, "ms")
        if layer == "exponents":
            metrics["exponents.check_strict_criterion.p1001_ms"] = (criterion.ms_per_request("p1001"), "ms")
        if layer == "kernel":
            _, _, inclusive, entries = stats.get("kernel.kernel_gram", absent)
            metrics["kernel.kernel_gram.ms_per_entry"] = (inclusive * 1000 / entries if entries else 0.0, "ms")
            for n in GRID16_SIZES:
                metrics[f"kernel.kernel_gram.grid16_n{n}_ms"] = (kernel_gram.ms_per_request(f"n{n}"), "ms")
        if layer == "linalg":
            metrics["linalg.numpy_decompositions.calls"] = (layer_sum("linalg.numpy", 0) / requests, "count")
            metrics["linalg.numpy_decompositions.self_ms"] = (layer_sum("linalg.numpy", 1) * ms, "ms")
        if layer == "construction":
            metrics["construction.witness_points"] = (stats.get("construction.build_counterexample", absent)[3] / requests, "count")
        if layer == "oracle":
            metrics["oracle.collocation.columns"] = (stats.get("oracle.collocation", absent)[3] / requests, "count")
        if layer == "selftest":
            for check in check_names:
                metrics[f"selftest.{check}.self_ms"] = (stats.get(f"selftest.{check}", absent)[1] * ms, "ms")
        metrics[f"{layer}.self_ms"] = (layer_sum(layer, 1) * ms, "ms")
    metrics["cli.report_bytes"] = (report_bytes / requests, "bytes")
    latency_ms = sum(latencies) * ms
    metrics["trace.latency_ms"] = (latency_ms, "ms")
    metrics["trace.unattributed_ms"] = (latency_ms - sum(metrics[f"{layer}.self_ms"][0] for layer in LAYERS), "ms")
    return metrics

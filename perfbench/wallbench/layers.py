"""Layer spans for the traced run, recorded from outside the program.

:class:`LayerPatches` wraps the public entry point of each layer in a
:class:`~wallbench.spans.SpanRecorder` span for the duration of a traced
phase and restores every original afterwards.  A module-level function
is replaced in its defining module *and* in every ``repro`` module that
imported it by name, so ``from x import f`` call sites are covered too.
Nothing under ``src/`` is edited; the program only sees its own
functions called through a timing wrapper.

Span names are the layer names the per-layer metrics use.
"""

from __future__ import annotations

import importlib
import sys
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor

from wallbench.spans import SpanRecorder, merge_intervals, self_times

#: Modules imported before patching so every kernel class exists.
_PRELOAD = (
    "repro",
    "repro.algorithms.radik",
    "repro.approx.bucketed",
    "repro.bitonic.sort",
    "repro.bitonic.topk",
    "repro.cpu",
    "repro.engine",
    "repro.serving",
    "repro.sharding.executor",
    "repro.streaming",
)


def _select_attrs(args, kwargs, result):
    return {"algorithm": args[0].name, "n": len(args[1])}


def _batched_attrs(args, kwargs, result):
    matrix = args[0]
    return {"n": int(matrix.shape[0] * matrix.shape[1])}


class LayerPatches:
    """Installs layer spans into the loaded program; a context manager."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "LayerPatches":
        for name in _PRELOAD:
            importlib.import_module(name)
        from repro.algorithms import base, registry
        from repro.algorithms.radik import batched_radik_topk
        from repro.core import batched
        from repro.core.planner import TopKPlanner
        from repro.engine import sql
        from repro.engine.executor import QueryExecutor
        from repro.gpu import timing
        from repro.observability import instrument
        from repro.plan import bind
        from repro.serving.batcher import CrossQueryBatcher
        from repro.serving.plan_cache import PlanCache
        from repro.serving.scheduler import TopKServer
        from repro.sharding import executor as sharding_executor
        from repro.sharding import merge
        from repro.sharding.executor import ShardedTopK
        from repro.streaming.subscription import Subscription
        from repro.streaming.window import WindowTopK

        try:
            self._method(TopKPlanner, "choose", "core.planner")
            self._function(registry, "create", "plan.bind")
            self._function(registry, "create_for_node", "plan.bind")
            self._function(bind, "bind_plan", "plan.bind")
            for cls in _kernel_classes(base.TopKAlgorithm):
                if cls is not ShardedTopK:
                    self._method(cls, "run", "select", _select_attrs)
            self._function(batched, "batched_topk", "select.batched", _batched_attrs)
            self._function(
                sys.modules[batched_radik_topk.__module__],
                "batched_radik_topk",
                "select.batched",
                _batched_attrs,
            )
            self._function(base, "reference_topk", "oracle")
            self._function(timing, "trace_time", "gpu.timing")
            self._function(instrument, "record_trace", "gpu.timing")
            self._function(sql, "parse", "engine.parse")
            self._method(QueryExecutor, "execute", "engine.execute")
            self._method(ShardedTopK, "run", "sharding.run")
            self._function(merge, "merge_topk", "sharding.merge")
            self._set(
                sharding_executor,
                "ThreadPoolExecutor",
                _adopting_pool(self.recorder),
            )
            self._method(TopKServer, "submit", "serving.submit")
            self._method(PlanCache, "bound", "serving.plan_cache")
            self._method(CrossQueryBatcher, "execute", "serving.execute")
            self._method(Subscription, "tick", "streaming.tick")
            self._method(WindowTopK, "advance", "streaming.advance")
            self._method(WindowTopK, "emit", "streaming.emit")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _method(self, cls, name: str, layer: str, attrs=None) -> None:
        original = cls.__dict__[name]
        self._set(cls, name, self.recorder.wrap(layer, original, attrs))

    def _function(self, module, name: str, layer: str, attrs=None) -> None:
        original = getattr(module, name)
        wrapped = self.recorder.wrap(layer, original, attrs)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapped)


def _kernel_classes(root) -> list[type]:
    """Every subclass of ``root`` that defines its own ``run``."""
    found, pending = [], list(root.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in cls.__dict__:
            found.append(cls)
    return found


def _adopting_pool(recorder: SpanRecorder) -> type:
    """A ThreadPoolExecutor whose tasks run as children of the span open
    on the submitting thread."""

    class AdoptingThreadPoolExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(recorder.adopt(fn), *args, **kwargs)

    return AdoptingThreadPoolExecutor


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans

#: Layers reported as ``<layer>.calls`` (outermost spans) and ``<layer>.ms``.
COUNTED = ("core.planner", "plan.bind", "select", "select.batched", "oracle")
#: Layers reported as ``<layer>.ms`` (self time) only.
TIMED = (
    "gpu.timing",
    "engine.parse",
    "sharding.run",
    "sharding.merge",
    "serving.submit",
    "serving.plan_cache",
    "serving.execute",
    "streaming.tick",
    "streaming.advance",
    "streaming.emit",
)
#: Span name of one benchmark operation (not a layer).
OP = "op"


def _covered(merged, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by sorted disjoint intervals."""
    total = 0.0
    first = max(0, bisect_right(merged, (lo, float("inf"))) - 1)
    for start, end in merged[first:]:
        if start >= hi:
            break
        total += max(0.0, min(end, hi) - max(start, lo))
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times, plus how much operation time no
    layer span covers."""
    self_ms = {key: value * 1e3 for key, value in self_times(spans).items()}
    by_id = {span.id: span for span in spans}

    def outermost(span) -> bool:
        parent = by_id.get(span.parent)
        return parent is None or parent.name != span.name

    def under(span, name: str) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    out: dict[str, float] = {}
    for layer in COUNTED + TIMED:
        named = [span for span in spans if span.name == layer]
        if layer in COUNTED:
            out[f"{layer}.calls"] = float(sum(outermost(s) for s in named))
        out[f"{layer}.ms"] = sum(self_ms[s.id] for s in named)

    selects = [span for span in spans if span.name == "select"]
    for span in selects:
        key = f"select.{span.attrs.get('algorithm', 'unknown')}.ms"
        out[key] = out.get(key, 0.0) + self_ms[span.id]
    top = [span for span in selects if outermost(span)]
    seconds = sum(span.duration for span in top)
    out["select.melem_per_s"] = (
        sum(span.attrs.get("n", 0) for span in top) / 1e6 / seconds
        if seconds else 0.0
    )

    executes = [span for span in spans if span.name == "engine.execute"]
    out["engine.execute.ms"] = sum(
        span.duration for span in executes if outermost(span)
    ) * 1e3
    out["engine.self.ms"] = sum(self_ms[span.id] for span in executes)

    runs = [s for s in spans if s.name == "sharding.run" and outermost(s)]
    run_seconds = sum(span.duration for span in runs)
    shard_oracle = sum(
        span.duration
        for span in spans
        if span.name == "oracle" and under(span, "sharding.run")
    )
    out["sharding.oracle_frac"] = shard_oracle / run_seconds if run_seconds else 0.0

    ops = [span for span in spans if span.name == OP]
    merged = merge_intervals(
        (span.start, span.end) for span in spans if span.name != OP
    )
    op_seconds = sum(span.duration for span in ops)
    covered = sum(_covered(merged, span.start, span.end) for span in ops)
    out["trace.unattributed_frac"] = (
        1.0 - covered / op_seconds if op_seconds else 0.0
    )
    return out

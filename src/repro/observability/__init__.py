"""repro.observability — tracing, metrics, and profiling hooks.

The layer every scaling PR profiles against: hierarchical spans
(query -> plan -> algorithm -> kernel launch) with wall-clock *and*
simulated-time attribution, plus a metrics registry the GPU simulator,
planner, engine executor, and hybrid schedulers publish into.

Usage::

    from repro import observability as obs

    with obs.observe() as observation:
        result = topk(values, k=32)
    print(observation.tracer.render())
    obs.write_chrome_trace("trace.json", observation.tracer)

Instrumentation sites call :func:`span` / :func:`active_metrics`; both
read context-vars and cost one dictionary-free lookup when observation is
disabled, so the library runs untraced at full speed by default.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro.observability.export import (
    kernel_sim_total_ms,
    load_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
)
from repro.observability.tracer import NULL_SPAN, NullSpan, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Summary",
    "NullSpan",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "Observation",
    "observe",
    "suspended",
    "span",
    "current_span",
    "current_tracer",
    "active_metrics",
    "kernel_sim_total_ms",
    "load_jsonl",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]

_TRACER: ContextVar[Tracer | None] = ContextVar("repro_tracer", default=None)
_METRICS: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_metrics", default=None
)


@dataclass
class Observation:
    """A tracer + metrics registry pair installed together."""

    tracer: Tracer
    metrics: MetricsRegistry

    @contextmanager
    def activate(self):
        """Install this observation for the duration of a ``with`` block."""
        tracer_token = _TRACER.set(self.tracer)
        metrics_token = _METRICS.set(self.metrics)
        try:
            yield self
        finally:
            _TRACER.reset(tracer_token)
            _METRICS.reset(metrics_token)


@contextmanager
def observe(tracer: Tracer | None = None, metrics: MetricsRegistry | None = None):
    """Enable observation for a ``with`` block; yields the Observation."""
    # Explicit None checks: an empty registry (len 0) is falsy, and ``or``
    # would silently swap a caller's registry for a fresh one.
    observation = Observation(
        Tracer() if tracer is None else tracer,
        MetricsRegistry() if metrics is None else metrics,
    )
    with observation.activate():
        yield observation


@contextmanager
def suspended():
    """Temporarily disable observation (for internal helper computations
    that are not part of the modeled execution, e.g. a hybrid scheduler's
    functional per-partition runs whose kernels the scheduler re-accounts
    in its own trace)."""
    tracer_token = _TRACER.set(None)
    metrics_token = _METRICS.set(None)
    try:
        yield
    finally:
        _TRACER.reset(tracer_token)
        _METRICS.reset(metrics_token)


def current_span() -> Span | NullSpan:
    """The innermost open span, for annotating it from a helper deeper in
    the call; :data:`NULL_SPAN` when none is open or tracing is off."""
    tracer = _TRACER.get()
    if tracer is None:
        return NULL_SPAN
    return tracer.current() or NULL_SPAN


def current_tracer() -> Tracer | None:
    """The installed tracer, or None when observation is disabled."""
    return _TRACER.get()


def active_metrics() -> MetricsRegistry | None:
    """The installed metrics registry, or None when disabled."""
    return _METRICS.get()


def span(name: str, category: str = "span", **attributes) -> Span | NullSpan:
    """Open a span on the active tracer, or return the shared no-op span.

    This is the only call instrumented hot paths make; when tracing is
    off it performs one context-var read and returns :data:`NULL_SPAN`.
    """
    tracer = _TRACER.get()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, category, **attributes)

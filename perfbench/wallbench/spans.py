"""Thread-safe in-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: its name, start and end
(``time.perf_counter`` seconds), the thread it ran on and the span that
caused it.  Each thread keeps its own stack of open spans, so a call
made while a span is open on the same thread becomes that span's child.
Work handed to another thread is attributed through :meth:`adopt`: the
worker starts with the submitting thread's innermost span as its parent,
which is how shard work on a thread pool lands under the sharded run
that spawned it.

Spans stay in memory until :meth:`SpanRecorder.write` serializes them
at the end of the run; nothing is written while the workload runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable


@dataclass
class SpanRecord:
    """One finished span."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; see the module docstring."""

    def __init__(self):
        self.spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of this thread's innermost open span (or adopted parent)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _add(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)

    def call(self, name: str, fn: Callable, args, kwargs, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``attrs`` is an optional callable ``(args, kwargs, result) ->
        dict`` evaluated after the call, outside the timed interval.
        """
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else {}
            self._add(
                SpanRecord(
                    span_id, parent, name, start, end,
                    threading.get_ident(), extra,
                )
            )

    def wrap(self, name: str, fn: Callable, attrs=None) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    def adopt(self, fn: Callable) -> Callable:
        """``fn`` made to run, on any thread, as a child of the span that
        is open on the calling thread now."""
        parent = self.current()

        @functools.wraps(fn)
        def adopted(*args, **kwargs):
            stack = self._stack()
            saved = list(stack)
            stack[:] = [parent] if parent is not None else []
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved

        return adopted

    def interval(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (a queue wait, a late send)."""
        self._add(
            SpanRecord(
                self._new_id(), None, name, start, max(start, end),
                threading.get_ident(),
            )
        )

    def write(self, path, meta: dict | None = None) -> None:
        """Serialize every span (and ``meta``) as one JSON document."""
        with self._lock:
            spans = [asdict(span) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta or {}, "spans": spans}, handle)


def merge_intervals(intervals) -> list[tuple[float, float]]:
    """Sorted, disjoint intervals covering the same points."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    return sum(end - start for start, end in merge_intervals(intervals))


def clip(intervals, lo: float, hi: float) -> list[tuple[float, float]]:
    """Intervals cut to [lo, hi]; empty ones dropped."""
    out = []
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            out.append((start, end))
    return out


def self_times(spans: list[SpanRecord]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may run concurrently on other threads, so coverage is the
    length of the union of their intervals, not the sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - union_length(clip(children.get(span.id, ()), span.start, span.end))
        for span in spans
    }

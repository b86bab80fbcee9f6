"""Hierarchical tracing with dual time domains.

A :class:`Tracer` records a forest of :class:`Span` objects.  Each span
carries *two* clocks:

* **wall time** — real seconds measured with ``time.perf_counter`` while
  the instrumented Python code runs (how long the reproduction took), and
* **simulated time** — milliseconds attributed from the GPU timing model
  (how long the modeled hardware would take).

The two are deliberately independent: a kernel-launch span has zero wall
duration (the counters are analytic) but a meaningful simulated duration,
while a planner span has wall duration and no simulated time.

Zero overhead when disabled
---------------------------

Instrumentation sites never construct spans directly; they call
:func:`repro.observability.span`, which reads a :class:`contextvars.ContextVar`.
When no tracer is installed the call returns a shared no-op
:data:`NULL_SPAN` — one context-var load and one function call, no
allocation, no branching inside the hot loop.  Context-vars (rather than a
module global) keep concurrent sessions — threads, asyncio tasks — from
observing each other's spans.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Iterator


class Span:
    """One node in the trace tree.

    Usable as a context manager; entering starts the wall clock, exiting
    stops it and pops the span off its tracer's stack.
    """

    __slots__ = (
        "name",
        "category",
        "span_id",
        "parent_id",
        "start_wall",
        "end_wall",
        "sim_ms",
        "attributes",
        "children",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        name: str,
        category: str,
        span_id: int,
        parent_id: int | None,
        start_wall: float,
        attributes: dict | None = None,
        tracer: "Tracer | None" = None,
    ):
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_wall = start_wall
        self.end_wall: float | None = None
        self.sim_ms = 0.0
        self.attributes: dict = attributes or {}
        self.children: list[Span] = []
        self._tracer = tracer
        self._token = None

    # -- recording ------------------------------------------------------

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)
        return self

    def add_simulated_ms(self, milliseconds: float) -> None:
        """Attribute simulated milliseconds to this span."""
        self.sim_ms += milliseconds

    # -- derived views ---------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Wall duration; 0.0 while the span is still open."""
        if self.end_wall is None:
            return 0.0
        return self.end_wall - self.start_wall

    @property
    def total_sim_ms(self) -> float:
        """Simulated milliseconds of the whole subtree."""
        return self.sim_ms + sum(child.total_sim_ms for child in self.children)

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over the subtree, self first."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        if self._tracer is not None:
            self._tracer._finish(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, category={self.category!r}, "
            f"sim_ms={self.sim_ms:.3f}, children={len(self.children)})"
        )


class NullSpan:
    """The shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attributes) -> "NullSpan":
        return self

    def add_simulated_ms(self, milliseconds: float) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False


NULL_SPAN = NullSpan()


class Tracer:
    """Builds the span forest for one observed execution."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.epoch = clock()
        self.roots: list[Span] = []
        self._next_id = 1
        # The open-span stack lives in a context-var so concurrent tasks
        # sharing one tracer nest their spans correctly.
        self._stack: ContextVar[tuple[Span, ...]] = ContextVar(
            "repro_span_stack", default=()
        )

    # -- span lifecycle --------------------------------------------------

    def span(self, name: str, category: str = "span", **attributes) -> Span:
        """Open a child span of the innermost open span (or a new root)."""
        stack = self._stack.get()
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            category=category,
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            start_wall=self._clock() - self.epoch,
            attributes=dict(attributes),
            tracer=self,
        )
        self._next_id += 1
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        span._token = self._stack.set(stack + (span,))
        return span

    def current(self) -> Span | None:
        """The innermost open span of this context, or None."""
        stack = self._stack.get()
        return stack[-1] if stack else None

    def _finish(self, span: Span) -> None:
        span.end_wall = self._clock() - self.epoch
        if span._token is not None:
            self._stack.reset(span._token)
            span._token = None

    # -- queries ---------------------------------------------------------

    def walk(self) -> Iterator[Span]:
        """Depth-first iteration over every recorded span."""
        for root in self.roots:
            yield from root.walk()

    @property
    def num_spans(self) -> int:
        return sum(1 for _ in self.walk())

    def spans(self, category: str | None = None) -> list[Span]:
        """All spans, optionally filtered by category."""
        if category is None:
            return list(self.walk())
        return [span for span in self.walk() if span.category == category]

    def total_sim_ms(self, category: str | None = None) -> float:
        """Sum of per-span simulated milliseconds (no double counting:
        ``sim_ms`` is per-span, not per-subtree)."""
        return sum(span.sim_ms for span in self.spans(category))

    def render(self, max_depth: int | None = None) -> str:
        """ASCII tree of the trace with both clocks."""
        lines: list[str] = []

        def emit(span: Span, depth: int) -> None:
            if max_depth is not None and depth > max_depth:
                return
            indent = "  " * depth
            timing = f"{span.wall_seconds * 1e3:8.3f} ms wall"
            if span.total_sim_ms > 0:
                timing += f"  {span.total_sim_ms:10.4f} ms simulated"
            lines.append(f"{indent}{span.name} [{span.category}] {timing}")
            for child in span.children:
                emit(child, depth + 1)

        for root in self.roots:
            emit(root, 0)
        return "\n".join(lines) if lines else "(no spans recorded)"

"""Span tracing: nested, attributed wall-clock windows over query processing.

Spans are *measured* with ``time.perf_counter`` as the code runs — the
planning phases (``lower`` → ``fragment`` → ``execute``) recorded live
by a :class:`SpanTracer` attached to an
:class:`~repro.planner.executor.Executor`, and anything a caller wraps
in :meth:`SpanTracer.span`.  The simulated clock has no spans: a
finished execution's :class:`~repro.execution.metrics.ExecutionMetrics`
is rendered by :meth:`~repro.observe.trace_events.TraceBuilder.add_execution`
(``--trace``: fragments at their scheduler timeline positions, IO
contention as sub-slices) and by
:func:`~repro.observe.query_log.build_record` (``--query-log`` /
``--json``: per-operator and per-fragment actuals).

Tracing is strictly passive: a tracer never touches
``ExecutionMetrics``, so simulated charges and results are bit-identical
with tracing on or off (pinned by ``tests/observe/test_spans.py``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["Span", "SpanTracer"]


@dataclass
class Span:
    """One nested time window.

    ``start_seconds``/``end_seconds`` are wall-clock seconds since the
    owning tracer's birth."""

    name: str
    category: str = "phase"      # "phase" | "query"
    start_seconds: float = 0.0
    end_seconds: float = 0.0
    attributes: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "start_seconds": self.start_seconds,
            "end_seconds": self.end_seconds,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }


class SpanTracer:
    """Collects live wall-clock spans.

    Attach one to an executor (``Executor(..., tracer=tracer)`` or
    ``executor.tracer = tracer``): the executor wraps its planning and
    execution phases in :meth:`span`.  The tracer is reusable across
    executors and queries; ``roots`` accumulates top-level spans in
    completion order."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._stack: List[Span] = []
        #: completed top-level wall spans, in completion order.
        self.roots: List[Span] = []

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    @contextmanager
    def span(self, name: str, category: str = "phase", **attributes):
        """Open a wall-clock span; nests under any currently open span."""
        span = Span(
            name=name,
            category=category,
            start_seconds=self._now(),
            attributes=dict(attributes),
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_seconds = self._now()
            self._stack.pop()

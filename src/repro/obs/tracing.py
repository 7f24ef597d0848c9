"""Nested wall-time spans with bounded-memory aggregation.

A span measures one named stage (``with registry.span("online.gbdt_fit")``)
and feeds two sinks:

* **aggregates** — one ``SpanAggregate`` (count / total / max seconds) per
  span *name*, so memory stays O(distinct stages) no matter how long the
  process runs;
* a **ring buffer** of the most recent raw spans (name, parent, start,
  duration) for debugging span trees, bounded at ``_RING_SIZE`` spans.

Nesting is tracked per thread: the innermost open span on the current
thread becomes the ``parent`` of a new span, which is how a retraining
cycle's ``window_close -> label_solve -> gbdt_fit`` chain is reconstructed
from the ring buffer.  Start times come from :func:`time.perf_counter`
(monotonic, process-relative — meaningful for ordering and deltas, not as
wall-clock timestamps).
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter

__all__ = ["SpanAggregate", "Span", "NullSpan", "Tracer"]

#: Recent raw spans the ring keeps; older ones fall off.
_RING_SIZE = 256


class SpanAggregate:
    """Bounded-memory summary of every completed span with one name."""

    __slots__ = ("count", "total", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def as_dict(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "total_seconds": self.total,
            "max_seconds": self.max,
            "mean_seconds": self.total / self.count if self.count else 0.0,
        }


class Span:
    """One timed stage; context manager returned by ``Tracer.span``.

    After ``__exit__`` the measured duration is available as ``elapsed``
    and the enclosing span's name (or None) as ``parent``.
    """

    __slots__ = ("_tracer", "name", "parent", "elapsed", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.parent: str | None = None
        self.elapsed = 0.0

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.name)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.elapsed = perf_counter() - self._start
        self._tracer._stack().pop()
        self._tracer.record(self.name, self.parent, self._start, self.elapsed)
        return False


class NullSpan:
    """Disabled-registry span: measures ``elapsed`` but records nothing.

    Timing is kept (two ``perf_counter`` calls) because callers such as
    ``LFOOnline`` consume ``span.elapsed`` for their own counters even when
    observability is off; spans are used at stage granularity, never per
    request, so the cost is immaterial.
    """

    __slots__ = ("name", "parent", "elapsed", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.parent = None
        self.elapsed = 0.0

    def __enter__(self) -> "NullSpan":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.elapsed = perf_counter() - self._start
        return False


class Tracer:
    """Per-name span aggregation plus a recent-span ring buffer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.aggregates: dict[str, SpanAggregate] = {}
        self.ring: deque = deque(maxlen=_RING_SIZE)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> Span:
        """Open a new span (use as ``with tracer.span("stage"):``)."""
        return Span(self, name)

    def event(self, name: str) -> None:
        """Record an instantaneous marker: a zero-duration span at the
        current nesting position.

        Degradation decisions (a watchdog firing, a staleness fallback
        engaging) have no meaningful duration but belong in the span tree,
        so an incident's ring buffer shows *where in the retrain chain*
        they happened.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.record(name, parent, perf_counter(), 0.0)

    def record(
        self, name: str, parent: str | None, start: float, elapsed: float
    ) -> None:
        """Fold one completed span into the aggregates (thread-safe)."""
        with self._lock:
            aggregate = self.aggregates.get(name)
            if aggregate is None:
                aggregate = self.aggregates[name] = SpanAggregate()
            aggregate.add(elapsed)
            self.ring.append((name, parent, start, elapsed))

    def snapshot(self) -> dict[str, dict[str, float | int]]:
        """Aggregates keyed by span name (JSON-safe)."""
        with self._lock:
            return {
                name: agg.as_dict() for name, agg in self.aggregates.items()
            }

    def recent(self) -> list[dict[str, float | str | None]]:
        """The ring buffer's raw spans, oldest first (JSON-safe)."""
        with self._lock:
            return [
                {
                    "name": name,
                    "parent": parent,
                    "start": start,
                    "seconds": elapsed,
                }
                for name, parent, start, elapsed in self.ring
            ]

    def reset(self) -> None:
        """Drop all aggregates and buffered spans."""
        with self._lock:
            self.aggregates.clear()
            self.ring.clear()

"""Metrics registry: counters, gauges, fixed-bucket histograms, spans.

The request path must never pay for observability it is not using, so the
registry comes in two flavours behind one interface:

* :class:`MetricsRegistry` — real aggregation.  Hot paths fetch instrument
  objects once and call plain methods on them: an increment is a single
  int/float add on a ``__slots__`` object — no locking, no allocation, no
  string formatting per request.  Locks are only taken on instrument
  *creation* and span recording (stage granularity, never per request).
* :class:`NullRegistry` — every instrument is a shared no-op singleton and
  ``enabled`` is False, so instrumented code can gate its only real cost
  (``perf_counter`` calls) on one attribute read.

A process-wide default registry (initially a ``NullRegistry``) is what
instrumented library code reports to; install a real one with
:func:`set_registry` or scoped via :func:`use_registry`.  Worker processes
get a fresh ``NullRegistry`` default, so instrumentation inside process
pools degrades to no-ops instead of breaking pickling.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from math import isfinite
from typing import Any, Callable, Iterable, Iterator

from .tracing import NullSpan, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_TIME_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram bounds for durations in seconds: 1µs .. 10s, decades.
DEFAULT_TIME_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class Counter:
    """Monotonically increasing value (requests, hits, bytes...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value (resident objects, used bytes...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with count/total/max summary.

    ``bounds`` are *inclusive* upper bucket edges (Prometheus ``le``
    semantics: a value equal to an edge lands in that edge's bucket),
    with one implicit overflow bucket above the top edge.  Buckets are
    fixed at construction so ``observe`` is one bisect plus integer adds
    — no allocation.  Bounds must be finite: the overflow bucket *is*
    the ``+Inf`` bucket, so an explicit infinite edge would alias it.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "max")

    def __init__(
        self, name: str, bounds: Iterable[float] = DEFAULT_TIME_BUCKETS
    ) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not all(isfinite(b) for b in self.bounds):
            raise ValueError(
                "histogram bounds must be finite; the overflow bucket "
                "already provides +Inf"
            )
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def observe_batch(self, values: Iterable[float]) -> None:
        """Fold a whole array of observations in one vectorised pass.

        Bit-identical to per-value :meth:`observe`: the bucketing
        (``np.searchsorted(..., side="left")`` matches the bisect) and the
        total, which ``np.add.accumulate`` folds left to right as
        :meth:`observe` does (``values.sum()`` adds pairwise, so it
        rounds differently).  O(len + buckets) instead of one Python call
        per sample — how the server simulation folds tens of thousands of
        latency samples.
        """
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        indices = np.searchsorted(self.bounds, values, side="left")
        folded = np.bincount(indices, minlength=len(self.bucket_counts))
        for i, n in enumerate(folded):
            if n:
                self.bucket_counts[i] += int(n)
        self.count += int(values.size)
        self.total = float(
            np.add.accumulate(np.concatenate(([self.total], values)))[-1]
        )
        top = float(values.max())
        if top > self.max:
            self.max = top

    def merge_delta(
        self,
        bucket_counts: "Iterable[int]",
        count: int,
        total: float,
        max_value: float,
    ) -> None:
        """Fold another histogram's per-bucket *delta* into this one.

        The cross-process folding primitive: a shard worker observes each
        batch into its own histogram with identical bounds and ships it
        whole as the delta (see :mod:`repro.obs.fold`).  Bucket counts
        and ``count`` merge by integer adds, so they are bit-identical to
        having observed every sample locally.  ``total`` is a sum of
        shipped per-batch totals, so it matches to rounding, not bit for
        bit.  ``max`` merges by comparison into a high-water mark.
        """
        counts = list(bucket_counts)
        if len(counts) != len(self.bucket_counts):
            raise ValueError(
                f"histogram {self.name!r}: cannot merge {len(counts)} "
                f"buckets into {len(self.bucket_counts)}"
            )
        for i, n in enumerate(counts):
            if n:
                self.bucket_counts[i] += n
        self.count += count
        self.total += total
        if max_value > self.max:
            self.max = max_value

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "mean": self.total / self.count if self.count else 0.0,
            "buckets": [
                [bound, n]
                for bound, n in zip(
                    list(self.bounds) + ["+Inf"], self.bucket_counts
                )
            ],
        }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    total = 0.0
    max = 0.0

    def inc(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def observe_batch(self, values) -> None:
        pass

    def merge_delta(self, bucket_counts, count, total, max_value) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class _NoWindows:
    """The windowed-telemetry surface of a registry with no window ring.

    A cumulative or disabled registry has no windows; these no-ops let
    producers call ``registry.maybe_roll()`` at checkpoints and SLO
    engines ``attach`` unconditionally.  :class:`repro.obs.WindowedRegistry`
    overrides all of them.
    """

    every_requests = 0

    def on_close(self, callback: Callable[[Any], None]) -> None:
        pass

    def maybe_roll(self) -> None:
        return None

    def roll(self) -> None:
        return None

    def flush(self) -> None:
        return None

    def windows(self) -> list:
        return []

    def to_windows_dict(self) -> dict:
        return {
            "mode": "disabled",
            "every_requests": 0,
            "ring": 0,
            "next_index": 0,
            "windows": [],
        }


class MetricsRegistry(_NoWindows):
    """Named instruments plus a span tracer, with snapshot exporters.

    A ``histogram()`` call that passes no bounds gets
    ``DEFAULT_TIME_BUCKETS``; the tracer keeps every span's aggregate and
    the most recent 256 raw spans.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.tracer = Tracer()

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name))
        return gauge

    def histogram(
        self, name: str, bounds: Iterable[float] | None = None
    ) -> Histogram:
        """Get or create the histogram ``name`` (bounds fixed on creation)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name, bounds or DEFAULT_TIME_BUCKETS)
                )
        return histogram

    def span(self, name: str) -> Span:
        """Open a nested wall-time span (``with registry.span("stage"):``)."""
        return self.tracer.span(name)

    def event(self, name: str) -> None:
        """Record an instantaneous span-tree marker (see ``Tracer.event``)."""
        self.tracer.event(name)

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        """One JSON-safe snapshot of every instrument and span aggregate."""
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            histograms = {n: h.as_dict() for n, h in self._histograms.items()}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": self.tracer.snapshot(),
            "recent_spans": self.tracer.recent(),
        }

    def to_prometheus(self, prefix: str = "repro") -> str:
        """The snapshot in Prometheus text exposition format."""
        from .export import render_prometheus

        return render_prometheus(self.to_dict(), prefix=prefix)

    def reset(self) -> None:
        """Drop every instrument and all span state."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        self.tracer.reset()


class NullRegistry(_NoWindows):
    """Disabled observability: same interface, every operation a no-op.

    ``span()`` still measures ``elapsed`` (callers consume it) but records
    nothing; counters/gauges/histograms are one shared inert instrument.
    The windowed-telemetry surface (:class:`repro.obs.WindowedRegistry`)
    is mirrored too — ``maybe_roll``/``roll`` return nothing, the ring is
    always empty, ``on_close`` subscriptions are dropped — so SLO
    engines attach to a disabled registry without a
    single conditional at the call site.
    """

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, bounds: Iterable[float] | None = None
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def span(self, name: str) -> NullSpan:
        return NullSpan(name)

    def event(self, name: str) -> None:
        pass

    def to_dict(self) -> dict:
        return {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": {},
            "recent_spans": [],
        }

    def to_prometheus(self, prefix: str = "repro") -> str:
        return ""

    def reset(self) -> None:
        pass


# -- process-wide default registry -------------------------------------------

_default_registry: MetricsRegistry | NullRegistry = NullRegistry()


def get_registry() -> MetricsRegistry | NullRegistry:
    """The registry instrumented library code currently reports to."""
    return _default_registry


def set_registry(
    registry: MetricsRegistry | NullRegistry,
) -> MetricsRegistry | NullRegistry:
    """Install ``registry`` as the process default; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(
    registry: MetricsRegistry | NullRegistry,
) -> Iterator[MetricsRegistry | NullRegistry]:
    """Scoped :func:`set_registry`: install for the block, then restore."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)

"""Windowed telemetry: a bounded time-series ring over the live registry.

The cumulative counters of :class:`~repro.obs.MetricsRegistry` answer
"what happened over the whole run" but not "what is happening *now*" —
the question every drift detector and SLO needs.  This module adds
:class:`WindowedRegistry`, a drop-in ``MetricsRegistry`` that
periodically snapshots every counter/gauge/histogram into a
:class:`WindowSnapshot` holding the *delta* since the previous window,
and keeps the most recent snapshots in a bounded ring.

Design constraints, in order:

* **The hot path is untouched.**  Instruments are the same lock-free
  ``Counter``/``Gauge``/``Histogram`` objects; windowing happens only when
  a producer calls :meth:`WindowedRegistry.maybe_roll` at a checkpoint
  (the simulator folds counters in chunks and checks there — never per
  request), and the check itself is two attribute reads and a compare.
* **O(1) memory.**  The ring is a ``deque(maxlen=ring)``; each snapshot
  stores one small dict per instrument, so memory is bounded by
  ``ring × live instruments`` regardless of run length.
* **Delta encoding.**  Counters and histogram buckets are stored as
  per-window differences, so window rates (req/s, evictions/s, window
  BHR) and window quantiles (p50/p99/p999 via
  :func:`estimate_quantile`) come straight out of one snapshot.
* **Deterministic replay.**  Window boundaries depend only on a
  designated request counter; the injectable ``clock`` (monotonic
  ``perf_counter`` by default) only stamps the window edges, so seeded
  tests can drive durations logically.

Downstream consumers subscribe with :meth:`WindowedRegistry.on_close`:
:class:`repro.obs.slo.SloEngine` (objectives and drift detectors alike)
attaches this way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

from .registry import MetricsRegistry

__all__ = [
    "WindowSnapshot",
    "WindowedRegistry",
    "estimate_quantile",
    "window_bhr",
]

#: Metric names the derived-signal helpers read.  These match what
#: :func:`repro.sim.simulate` folds; other producers may reuse them.
REQUESTS_COUNTER = "sim.requests"
HIT_BYTES_COUNTER = "sim.hit_bytes"
MISS_BYTES_COUNTER = "sim.miss_bytes"


def estimate_quantile(
    bounds: Sequence[float],
    counts: Sequence[int],
    q: float,
    max_value: float | None = None,
) -> float:
    """Estimate the ``q``-quantile of a fixed-bucket histogram window.

    ``bounds`` are the inclusive upper bucket edges and ``counts`` the
    per-bucket observation counts *including* the trailing overflow
    bucket (``len(counts) == len(bounds) + 1``).  The estimate
    interpolates linearly inside the containing bucket — the standard
    Prometheus ``histogram_quantile`` construction — so its error is
    bounded by the bucket width.  The overflow bucket interpolates up to
    ``max_value`` when known (the registry histograms track their max),
    else it reports the top edge.

    Returns 0.0 for an empty window.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            position = (rank - cumulative) / count
            if i < len(bounds):
                lo = bounds[i - 1] if i > 0 else min(0.0, bounds[0])
                hi = bounds[i]
            else:  # overflow bucket
                lo = bounds[-1]
                hi = max_value if max_value is not None and max_value > lo else lo
            return lo + (hi - lo) * position
        cumulative += count
    # Rounding fell off the end: the maximum we know of.
    if max_value is not None:
        return max_value
    return float(bounds[-1])


@dataclass
class WindowSnapshot:
    """One closed telemetry window: per-instrument deltas plus derived views.

    Attributes:
        index: 0-based window sequence number (monotonic even after the
            ring drops old windows).
        started / ended: injected-clock readings at the window edges
            (process-relative seconds under the default ``perf_counter``).
        duration: ``ended - started``.
        requests: delta of the designated request counter.
        counters: per-window counter deltas.
        gauges: gauge values at close (point-in-time, not deltas).
        histograms: per-window histogram deltas, each a dict with
            ``bounds`` (tuple), ``counts`` (per-bucket delta list incl.
            overflow), ``count``, ``total``, and ``max`` (cumulative max —
            maxima cannot be delta-encoded).
    """

    index: int
    started: float
    ended: float
    requests: int
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.ended - self.started

    # -- derived signals -----------------------------------------------------

    def delta(self, name: str) -> float:
        """This window's delta of counter ``name`` (0.0 if absent)."""
        return self.counters.get(name, 0.0)

    def quantile(self, name: str, q: float) -> float:
        """Window quantile of histogram ``name`` (0.0 when absent/empty)."""
        hist = self.histograms.get(name)
        if hist is None:
            return 0.0
        return estimate_quantile(
            hist["bounds"], hist["counts"], q, max_value=hist.get("max")
        )

    def histogram_count(self, name: str) -> int:
        """Number of observations histogram ``name`` saw this window."""
        hist = self.histograms.get(name)
        return 0 if hist is None else int(hist["count"])

    @property
    def bhr(self) -> float | None:
        """Window byte hit ratio from the simulator's byte counters, or
        None when the window saw no request bytes."""
        return window_bhr(self)

    def as_dict(self) -> dict:
        """JSON-safe view (tuples become lists)."""
        return {
            "index": self.index,
            "started": self.started,
            "ended": self.ended,
            "duration": self.duration,
            "requests": self.requests,
            "bhr": self.bhr,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "count": hist["count"],
                    "total": hist["total"],
                    "max": hist["max"],
                }
                for name, hist in self.histograms.items()
            },
        }


def window_bhr(snapshot: WindowSnapshot) -> float | None:
    """Byte hit ratio of one window, or None when no bytes moved."""
    hit = snapshot.delta(HIT_BYTES_COUNTER)
    miss = snapshot.delta(MISS_BYTES_COUNTER)
    total = hit + miss
    if total <= 0:
        return None
    return hit / total


class WindowedRegistry(MetricsRegistry):
    """A ``MetricsRegistry`` that rolls periodic delta windows into a ring.

    A window closes once the designated request counter
    (``request_counter``, default ``sim.requests``) has grown by at
    least ``every_requests`` since the last close.  Purely logical, so
    seeded replays produce bit-identical rings.  The ``clock`` only
    stamps window edges (``started`` / ``ended``); the default is the
    monotonic :func:`time.perf_counter` (never the wall clock — see the
    det-wallclock source check), and tests inject a fake one.

    Producers call :meth:`maybe_roll` at natural checkpoints (the
    simulator's counter-fold boundaries, a serving loop's batch edges).
    The check is O(1); the roll itself takes the registry lock once per
    window.  ``on_close`` callbacks (SLO engines, ``--follow``
    renderers) run after the lock is released.

    Args:
        every_requests: request-count window length (at least 1).
        ring: maximum retained windows (older ones fall off).
        clock: monotonic time source for window edges.
        request_counter: counter whose growth closes a window.
    """

    def __init__(
        self,
        every_requests: int,
        ring: int = 120,
        clock: Callable[[], float] = perf_counter,
        request_counter: str = REQUESTS_COUNTER,
    ) -> None:
        super().__init__()
        if every_requests <= 0:
            raise ValueError("every_requests must be at least 1")
        if ring <= 0:
            raise ValueError("ring must hold at least one window")
        self.every_requests = int(every_requests)
        self.request_counter = request_counter
        self._clock = clock
        self._ring: deque[WindowSnapshot] = deque(maxlen=ring)
        self._callbacks: list[Callable[[WindowSnapshot], None]] = []
        self._index = 0
        self._window_started = clock()
        self._last_requests = 0.0
        self._prev_counters: dict[str, float] = {}
        self._prev_hist_counts: dict[str, list[int]] = {}
        self._prev_hist_summary: dict[str, tuple[int, float]] = {}

    # -- subscription --------------------------------------------------------

    def on_close(self, callback: Callable[[WindowSnapshot], None]) -> None:
        """Call ``callback(snapshot)`` after every window close."""
        self._callbacks.append(callback)

    # -- rolling -------------------------------------------------------------

    def maybe_roll(self) -> WindowSnapshot | None:
        """Close the current window if its trigger has fired.

        Cheap enough for producer checkpoints: one dict get plus a
        compare.  Returns the closed snapshot, or None when the window
        stays open.
        """
        counter = self._counters.get(self.request_counter)
        if counter is None:
            return None
        if counter.value - self._last_requests < self.every_requests:
            return None
        return self.roll()

    def flush(self) -> WindowSnapshot | None:
        """Close the current window only if it has seen requests.

        The end-of-run idiom: when the trace length is an exact multiple
        of ``every_requests`` the periodic roll already closed the last
        window, and an unconditional :meth:`roll` would append an empty
        snapshot (``bhr`` None, zero counts) to the ring.  ``flush``
        makes the tail flush idempotent — returns the closed snapshot,
        or None when there was nothing left to close.

        The emptiness check and the roll happen under one lock
        acquisition, so concurrent flushes (a cancelled event loop's
        drain path racing a signal handler, say) close the tail window
        exactly once — the loser of the race observes zero new requests
        and returns None instead of appending a duplicate snapshot.
        """
        now = self._clock()
        with self._lock:
            counter = self._counters.get(self.request_counter)
            if counter is None or counter.value - self._last_requests <= 0:
                return None
            snapshot = self._roll_locked(now)
        for callback in self._callbacks:
            callback(snapshot)
        return snapshot

    def roll(self) -> WindowSnapshot:
        """Unconditionally close the current window and start a new one.

        Call once at end-of-run to flush the partial tail window —
        via :meth:`flush` when the tail may be empty.
        """
        now = self._clock()
        with self._lock:
            snapshot = self._roll_locked(now)
        for callback in self._callbacks:
            callback(snapshot)
        return snapshot

    def _roll_locked(self, now: float) -> WindowSnapshot:
        """Close the window; caller holds ``self._lock``.

        Split out so :meth:`flush` can make its emptiness check and the
        roll one atomic step; callbacks run after the lock is released
        (they may read the registry, which would deadlock here).
        """
        counters: dict[str, float] = {}
        for name, counter in self._counters.items():
            previous = self._prev_counters.get(name, 0.0)
            counters[name] = counter.value - previous
            self._prev_counters[name] = counter.value
        gauges = {name: g.value for name, g in self._gauges.items()}
        histograms: dict[str, dict] = {}
        for name, hist in self._histograms.items():
            prev_counts = self._prev_hist_counts.get(name)
            if prev_counts is None:
                prev_counts = [0] * len(hist.bucket_counts)
            prev_count, prev_total = self._prev_hist_summary.get(
                name, (0, 0.0)
            )
            current = list(hist.bucket_counts)
            histograms[name] = {
                "bounds": hist.bounds,
                "counts": [
                    c - p for c, p in zip(current, prev_counts)
                ],
                "count": hist.count - prev_count,
                "total": hist.total - prev_total,
                "max": hist.max,
            }
            self._prev_hist_counts[name] = current
            self._prev_hist_summary[name] = (hist.count, hist.total)
        requests_total = counters.get(self.request_counter, 0.0)
        snapshot = WindowSnapshot(
            index=self._index,
            started=self._window_started,
            ended=now,
            requests=int(requests_total),
            counters=counters,
            gauges=gauges,
            histograms=histograms,
        )
        self._ring.append(snapshot)
        self._index += 1
        self._window_started = now
        self._last_requests = self._prev_counters.get(
            self.request_counter, 0.0
        )
        return snapshot

    # -- ring access ---------------------------------------------------------

    def windows(self) -> list[WindowSnapshot]:
        """The retained windows, oldest first."""
        with self._lock:
            return list(self._ring)

    def to_windows_dict(self) -> dict:
        """JSON-safe dump of the ring (the ``/windows`` endpoint body)."""
        with self._lock:
            snapshots = list(self._ring)
            ring_capacity = self._ring.maxlen
            next_index = self._index
        return {
            "mode": "requests",
            "every_requests": self.every_requests,
            "ring": ring_capacity,
            "next_index": next_index,
            "windows": [snap.as_dict() for snap in snapshots],
        }

    def reset(self) -> None:
        """Drop instruments, the ring, and all delta baselines."""
        super().reset()
        with self._lock:
            self._ring.clear()
            self._index = 0
            self._window_started = self._clock()
            self._last_requests = 0.0
            self._prev_counters.clear()
            self._prev_hist_counts.clear()
            self._prev_hist_summary.clear()

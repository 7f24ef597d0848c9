"""Online feature tracking (Section 2.2 of the paper).

LFO's features per request:

* object size;
* most recent retrieval cost;
* currently free (available) bytes in the cache;
* the time *gaps* between the last ``n_gaps`` (default 50) consecutive
  requests to the object.

The gap representation is shift-invariant (except the first entry, which is
the gap from the most recent request to "now"), which the paper argues is
important for robustness, unlike LRU-K's absolute-age representation.

Storage is an *arena*: every tracked object owns one row of a dense
``(capacity, n_gaps + 1)`` float64 slab of request times, plus parallel
``seen`` (requests recorded — ring head and fill level both derive from
it) and ``last_cost`` vectors.  An ordered object → row map
preserves LRU order for the optional ``max_objects`` cap, and evicted
rows go on a free list for recycling, so memory stays bounded on
adversarial one-touch scans and the slab never fragments.  Feature
extraction is pure slice arithmetic over the slab — no per-gap Python
loop — and :meth:`FeatureTracker.features_batch` gathers whole request
windows, given as columns, in one shot for the decision engine, the
eviction probes and dataset construction.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from time import perf_counter

import numpy as np

from ..obs import get_registry
from ..trace import Request

__all__ = ["FeatureTracker", "MISSING_GAP", "feature_names"]

#: Sentinel for "no such past request": larger than any realistic gap so the
#: learner can separate "long ago" from "never".
MISSING_GAP = 1e9

#: Arena capacity for unbounded trackers starts here and doubles on demand.
_INITIAL_CAPACITY = 1024


def feature_names(n_gaps: int = 50) -> list[str]:
    """Column names of the feature matrix, in order."""
    return ["size", "cost", "free_bytes"] + [
        f"gap_{k}" for k in range(1, n_gaps + 1)
    ]


class FeatureTracker:
    """Arena-backed online feature state over a request stream.

    Usage per request (order matters)::

        features = tracker.features(request, free_bytes)  # before updating
        tracker.update(request.obj, request.time, request.cost)  # then record

    Attributes:
        n_gaps: number of gap features (the paper uses 50).
        max_objects: optional LRU bound on tracked objects (0 = unbounded).
    """

    def __init__(self, n_gaps: int = 50, max_objects: int = 0) -> None:
        if n_gaps <= 0:
            raise ValueError("n_gaps must be positive")
        if max_objects < 0:
            raise ValueError("max_objects must be >= 0")
        self.n_gaps = n_gaps
        # One extra slot so gap_1 (now - last request) plus n_gaps-1
        # historical gaps are all available.
        self._n_slots = n_gaps + 1
        self.max_objects = max_objects
        capacity = max_objects if max_objects else _INITIAL_CAPACITY
        self._times = np.zeros((capacity, self._n_slots), dtype=np.float64)
        self._last_cost = np.zeros(capacity, dtype=np.float64)
        #: requests recorded per row: the ring head is ``seen % n_slots``,
        #: the fill level ``min(seen, n_slots)``.
        self._seen = np.zeros(capacity, dtype=np.int64)
        #: object id → arena row, in LRU order (oldest first).
        self._rows: OrderedDict[int, int] = OrderedDict()
        #: rows released by eviction/forget, recycled before slab growth.
        self._free: list[int] = []
        self._next_row = 0
        #: object evicted by the LRU cap during the most recent
        #: :meth:`update` (None when nothing was evicted).  The batched
        #: scoring engine uses this to invalidate speculated rows.
        self.last_evicted: int | None = None
        # Most-recent-first slab positions for every possible head value:
        # row ``h`` lists ``(h - 1 - k) % n_slots`` for k = 0.., so a
        # ring-buffer read is one table row away.
        slots = np.arange(self._n_slots, dtype=np.int64)
        self._idx = (slots[:, None] - 1 - slots[None, :]) % self._n_slots
        # Extraction-latency instruments, cached per registry so the enabled
        # path pays one identity check per request instead of a registry
        # lookup; None until a real registry is first seen.
        self._obs_registry = None
        self._obs_hist = None
        self._obs_batch_hist = None
        self._obs_batch_rows = None

    @property
    def n_features(self) -> int:
        """Width of the feature vector."""
        return 3 + self.n_gaps

    @property
    def n_tracked(self) -> int:
        """Number of objects with live state."""
        return len(self._rows)

    # -- arena bookkeeping --------------------------------------------------

    def _grow(self) -> None:
        capacity = len(self._seen)
        new_capacity = capacity * 2
        times = np.zeros((new_capacity, self._n_slots), dtype=np.float64)
        times[:capacity] = self._times
        self._times = times
        self._last_cost = np.resize(self._last_cost, new_capacity)
        self._last_cost[capacity:] = 0.0
        self._seen = np.resize(self._seen, new_capacity)
        self._seen[capacity:] = 0

    def _alloc_row(self) -> int:
        if self._free:
            row = self._free.pop()
        else:
            if self._next_row >= len(self._seen):
                self._grow()
            row = self._next_row
            self._next_row += 1
        # Stale slab times are invisible while nothing is recorded, so
        # resetting the scalars is all recycling needs.
        self._seen[row] = 0
        self._last_cost[row] = 0.0
        return row

    # -- extraction ---------------------------------------------------------

    def features(self, request: Request, free_bytes: int) -> np.ndarray:
        """Feature vector for ``request`` given current cache free space.

        Must be called *before* :meth:`update` for the same request, so
        gap_1 reflects the distance to the previous request.

        When a :class:`repro.obs.MetricsRegistry` is active, the
        extraction latency is observed into the
        ``features.extract_seconds`` histogram; with the default
        ``NullRegistry`` the only overhead is one attribute check.
        """
        registry = get_registry()
        if not registry.enabled:
            return self._extract(
                request.obj, request.time, request.size, request.cost,
                free_bytes,
            )
        if registry is not self._obs_registry:
            self._bind_instruments(registry)
        started = perf_counter()
        vec = self._extract(
            request.obj, request.time, request.size, request.cost, free_bytes
        )
        self._obs_hist.observe(perf_counter() - started)
        return vec

    def _bind_instruments(self, registry) -> None:
        self._obs_registry = registry
        self._obs_hist = registry.histogram("features.extract_seconds")
        self._obs_batch_hist = registry.histogram(
            "features.batch_extract_seconds"
        )
        self._obs_batch_rows = registry.histogram("features.batch_rows")

    def _extract(
        self, obj: int, time: float, size: int, cost: float, free_bytes
    ) -> np.ndarray:
        vec = np.empty(self.n_features, dtype=np.float64)
        vec[0] = size
        vec[2] = free_bytes
        row = self._rows.get(obj)
        if row is None:
            vec[1] = cost
            vec[3:] = MISSING_GAP
        else:
            vec[1] = self._last_cost[row]
            seen = self._seen.item(row)
            m = min(seen, self.n_gaps)
            gaps = vec[3:]
            gaps[m:] = MISSING_GAP
            # Most-recent-first; every mapped row has seen >= 1.
            t = self._times[row, self._idx[seen % self._n_slots, :m]]
            gaps[0] = time - t[0]
            if m > 1:
                gaps[1:m] = t[: m - 1] - t[1:m]
        return vec

    def features_batch(
        self,
        objs: Sequence[int],
        times: Sequence[float],
        sizes: Sequence[int],
        costs: Sequence[float],
        free_bytes,
        update: bool = False,
    ) -> np.ndarray:
        """Feature matrix for a window of requests given as columns.

        Args:
            objs / times / sizes / costs: the window's request columns
                (lists or arrays of equal length), in stream order.
            free_bytes: free cache bytes — one scalar applied to every
                row, or a per-request sequence.
            update: ``False`` (probe mode) records nothing and leaves the
                tracker exactly as found; ``True`` extracts and records
                request by request (dataset construction).

        Returns:
            ``(len(objs), n_features)`` float64 matrix, bit-identical in
            either mode to the rows of a :meth:`features` /
            :meth:`update` loop over the window.  A probe gets there
            without recording: objects new to the window are one
            vectorised gather from the arena, and a row whose object
            last occurred in the window at row ``p`` is row ``p``
            shifted — ``gap_1 = times[i] - times[p]``, ``gap_2.. =
            gap_1..`` of row ``p``, cost ``costs[p]``.  That is exact,
            not approximate: ``update`` would have stored ``times[p]``
            and ``costs[p]``, the next extraction computes gap_1 as this
            very subtraction and every older gap from the same pair of
            stored floats row ``p`` was computed from, and the
            ``MISSING_GAP`` padding moves along.  What a probe cannot
            foresee is the ``max_objects`` cap evicting an object
            mid-window: its rows agree with the loop's up to the first
            cap eviction.
        """
        registry = get_registry()
        if not registry.enabled:
            return self._extract_batch(
                objs, times, sizes, costs, free_bytes, update
            )
        if registry is not self._obs_registry:
            self._bind_instruments(registry)
        started = perf_counter()
        X = self._extract_batch(objs, times, sizes, costs, free_bytes, update)
        self._obs_batch_hist.observe(perf_counter() - started)
        self._obs_batch_rows.observe(len(objs))
        return X

    def _extract_batch(
        self, objs, times, sizes, costs, free_bytes, update: bool
    ) -> np.ndarray:
        n = len(objs)
        X = np.empty((n, self.n_features), dtype=np.float64)
        if update:
            fb = np.broadcast_to(
                np.asarray(free_bytes, dtype=np.float64), (n,)
            )
            for i, (obj, time, size, cost) in enumerate(
                zip(objs, times, sizes, costs)
            ):
                X[i] = self._extract(obj, time, size, cost, fb[i])
                self.update(obj, time, cost)
            return X
        X[:, 0] = sizes
        X[:, 1] = costs
        X[:, 2] = free_bytes
        gaps = X[:, 3:]
        gaps[:] = MISSING_GAP
        if n == 0:
            return X
        times = np.asarray(times, dtype=np.float64)
        lookup = self._rows.get
        rows = np.array([lookup(obj, -1) for obj in objs], dtype=np.int64)
        known = np.flatnonzero(rows >= 0)
        if len(known):
            kr = rows[known]
            X[known, 1] = self._last_cost[kr]
            seen = self._seen[kr]
            t = self._times[
                kr[:, None], self._idx[seen % self._n_slots, : self.n_gaps]
            ]
            found = np.empty_like(t)
            found[:, 0] = times[known] - t[:, 0]
            found[:, 1:] = t[:, :-1] - t[:, 1:]
            found[np.arange(self.n_gaps)[None, :] >= seen[:, None]] = (
                MISSING_GAP
            )
            gaps[known] = found
        if len(set(objs)) == n:
            return X
        # In-window repeats: (row, the same object's previous row), in
        # row order so that chains of repeats resolve front to back.
        ids = np.asarray(objs)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        again = np.flatnonzero(ids[1:] == ids[:-1])
        repeat = order[again + 1]
        in_order = np.argsort(repeat)
        repeat = repeat[in_order]
        previous = order[again][in_order]
        X[repeat, 1] = np.asarray(costs, dtype=np.float64)[previous]
        gaps[repeat, 0] = times[repeat] - times[previous]
        for i, p in zip(repeat.tolist(), previous.tolist()):
            gaps[i, 1:] = gaps[p, :-1]
        return X

    # -- recording ----------------------------------------------------------

    def update(self, obj: int, time: float, cost: float) -> None:
        """Record one request in the object's history — as scalars: this
        runs once per request on every path, and the decision engine's
        callers hold columns, not ``Request`` objects.  ``last_evicted``
        afterwards names the object the ``max_objects`` cap dropped to
        make room (None = nothing).
        """
        rows = self._rows
        row = rows.get(obj)
        if row is None:
            row = self._alloc_row()
            rows[obj] = row
        else:
            rows.move_to_end(obj)
        seen = self._seen.item(row)
        self._times[row, seen % self._n_slots] = time
        self._seen[row] = seen + 1
        self._last_cost[row] = cost
        evicted = None
        if self.max_objects and len(rows) > self.max_objects:
            evicted, released = rows.popitem(last=False)
            self._free.append(released)
        self.last_evicted = evicted

    def arena_summary(self, now: float) -> dict:
        """Distribution summary of the live arena state at time ``now``.

        One vectorised pass over the live rows — gather, subtract, mean —
        cheap enough to run at every training-window close, which is where
        :class:`repro.core.LFOOnline` publishes it as the
        ``online.feature_*`` gauges the health layer's feature-drift
        detectors watch.

        Returns ``tracked`` (live objects), ``recency_mean`` (mean trace
        time since each object's last request — the gap_1 population), and
        ``cost_mean`` (mean last retrieval cost).
        """
        n = len(self._rows)
        if n == 0:
            return {"tracked": 0, "recency_mean": 0.0, "cost_mean": 0.0}
        rows = np.fromiter(self._rows.values(), dtype=np.int64, count=n)
        # Every mapped row has seen >= 1 (update records before mapping
        # is observable), so the slot behind the head is a real time.
        last_times = self._times[rows, (self._seen[rows] - 1) % self._n_slots]
        return {
            "tracked": n,
            "recency_mean": float(now - last_times.mean()),
            "cost_mean": float(self._last_cost[rows].mean()),
        }

    def memory_bytes_naive(self) -> int:
        """The paper's back-of-envelope accounting: a dense per-object record
        of 50 gaps (4 B each) plus size, cost, and bookkeeping ≈ 208 B."""
        per_object = 4 * self.n_gaps + 8  # gaps + size/cost words
        return per_object * len(self._rows)

    def forget(self, obj: int) -> None:
        """Drop state for an object (e.g. after long inactivity)."""
        row = self._rows.pop(obj, None)
        if row is not None:
            self._free.append(row)

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
it) and ``last_cost`` vectors.  The object → row map is in LRU order
**iff the tracker is capped** (``max_objects``) — only the cap's
eviction reads recency — and evicted rows go on a free list for
recycling, so memory stays bounded on adversarial one-touch scans and
the slab never fragments.  A feature row is one ring read and one
subtraction over the slab — no per-gap Python loop — and
:meth:`FeatureTracker.features_batch` gathers whole request windows,
given as columns, in one shot for the decision engine, the eviction
probes and dataset construction.

With the native module (:mod:`repro._native`) the window gather and the
arena writes are two of its routines.  ``tracker_gather`` fills a probe
window's cost and gap columns row by row — the numpy gather below stays
as the reference and the no-compiler path, and the two are bit-identical
(subtractions over the same stored floats).  ``tracker_record`` writes a
*deferred window*: while the decision engine replays a window on an
uncapped tracker (:meth:`FeatureTracker.defer_updates`),
:meth:`~FeatureTracker.update` only appends, and the pending records are
resolved to rows in request order and written by one call before the
next read.  The invariant is **no read sees an unflushed arena**: every
public reader — ``features``, ``features_batch``, ``arena_summary``,
``n_tracked``, ``memory_bytes_naive``, ``forget``, an immediate
``update`` — flushes first.  Nothing native is stored on the instance
(no handle, no address): array addresses are read off the live arrays
at each call, after any ``_grow``, so a grown, deep-copied or unpickled
tracker cannot hand C a stale pointer.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from time import perf_counter

import numpy as np

from .. import _native
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
        self._max_objects = max_objects
        capacity = max_objects if max_objects else _INITIAL_CAPACITY
        self._times = np.zeros((capacity, self._n_slots), dtype=np.float64)
        self._last_cost = np.zeros(capacity, dtype=np.float64)
        #: requests recorded per row: the ring head is ``seen % n_slots``,
        #: the fill level ``min(seen, n_slots)``.
        self._seen = np.zeros(capacity, dtype=np.int64)
        #: object id → arena row, in LRU order (oldest first) iff capped.
        self._rows: OrderedDict[int, int] = OrderedDict()
        #: rows released by eviction/forget, recycled before slab growth.
        self._free: list[int] = []
        self._next_row = 0
        #: object evicted by the LRU cap during the most recent
        #: :meth:`update` (None when nothing was evicted).  The batched
        #: scoring engine uses this to invalidate speculated rows.
        self.last_evicted: int | None = None
        #: Records of the open deferred window, in request order and
        #: flat — ``obj, time, cost, obj, time, cost, ...`` — so that a
        #: record leaves no container behind for the collector to walk;
        #: every reader flushes them first.
        self._pending: list = []
        self._deferring = False
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
    def max_objects(self) -> int:
        """LRU bound on tracked objects (0 = unbounded).  ``_rows`` is in
        LRU order iff it is set: a cap is imposed only on an empty tracker
        (``ValueError`` otherwise), changed or lifted on any."""
        return self._max_objects

    @max_objects.setter
    def max_objects(self, value: int) -> None:
        if value < 0:
            raise ValueError("max_objects must be >= 0")
        if value and not self._max_objects and self.n_tracked:
            raise ValueError("a tracker that already tracks objects kept no LRU order")
        self._max_objects = value
        self._deferring = self._deferring and not value

    @property
    def n_tracked(self) -> int:
        """Number of objects with live state."""
        if self._pending:
            self._flush()
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
            # Stale times are invisible while nothing is recorded, the
            # stale cost until the first record overwrites it.
            self._seen[row] = 0
        else:
            # A row never handed out is still all zeros.
            if self._next_row >= len(self._seen):
                self._grow()
            row = self._next_row
            self._next_row += 1
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
        if self._pending:
            self._flush()
        vec = np.empty(3 + self.n_gaps, dtype=np.float64)
        vec[0] = size
        vec[2] = free_bytes
        row = self._rows.get(obj)
        if row is None:
            vec[1] = cost
            vec[3:] = MISSING_GAP
        else:
            vec[1] = self._last_cost[row]
            seen = self._seen.item(row)
            # The whole ring, most recent first (seen >= 1 on a mapped
            # row); row view + 1-D read costs a quarter of [row, idx].
            t = self._times[row][self._idx[seen % self._n_slots]]
            vec[3] = time - t[0]
            np.subtract(t[:-2], t[1:-1], out=vec[4:])
            if seen < self.n_gaps:  # unwritten slots only fed these gaps
                vec[3 + seen:] = MISSING_GAP
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

        Raises:
            ValueError: the columns differ in length, or the object →
                row map names a row outside the arena — checked before
                the gather on either backend (the native one would read
                foreign memory where numpy raised).
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
        if not len(times) == len(sizes) == len(costs) == n:
            raise ValueError("request columns differ in length")
        if self._pending:
            self._flush()
        X[:, 0] = sizes
        X[:, 2] = free_bytes
        if n == 0:
            return X
        times = np.ascontiguousarray(times, dtype=np.float64)
        costs = np.ascontiguousarray(costs, dtype=np.float64)
        lookup = self._rows.get
        rows = np.array([lookup(obj, -1) for obj in objs], dtype=np.int64)
        if not _native.all_below(rows + 1, len(self._seen) + 1):
            raise ValueError("tracked row outside the arena")
        if len(set(objs)) == n:
            repeat = previous = None
        else:
            # In-window repeats: (row, the same object's previous row).
            ids = np.asarray(objs)
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            again = np.flatnonzero(ids[1:] == ids[:-1])
            repeat = order[again + 1]
            previous = order[again]
            if not (previous < repeat).all():
                raise ValueError("a repeat must follow its previous row")
        native = _native.load()
        if native is None:
            self._gather_numpy(X, rows, repeat, previous, times, costs)
            return X
        before = None
        if repeat is not None:
            before = np.full(n, -1, dtype=np.int64)
            before[repeat] = previous
        # Addresses are read off the live arrays here, never kept: the
        # arena arrays move on ``_grow`` and on every copy of the tracker.
        native.tracker_gather(
            n, self.n_gaps, self.n_features, rows.ctypes.data,
            None if before is None else before.ctypes.data,
            times.ctypes.data, costs.ctypes.data,
            self._times.ctypes.data, self._seen.ctypes.data,
            self._last_cost.ctypes.data, MISSING_GAP, X.ctypes.data,
        )
        return X

    def _gather_numpy(self, X, rows, repeat, previous, times, costs) -> None:
        """The cost and gap columns of a probe window in numpy: the
        reference for ``tracker_gather`` and the no-compiler path."""
        X[:, 1] = costs
        gaps = X[:, 3:]
        gaps[:] = MISSING_GAP
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
        if repeat is None:
            return
        # In row order, so that chains of repeats resolve front to back.
        in_order = np.argsort(repeat)
        repeat = repeat[in_order]
        previous = previous[in_order]
        X[repeat, 1] = costs[previous]
        gaps[repeat, 0] = times[repeat] - times[previous]
        for i, p in zip(repeat.tolist(), previous.tolist()):
            gaps[i, 1:] = gaps[p, :-1]

    # -- recording ----------------------------------------------------------

    def update(self, obj: int, time: float, cost: float) -> None:
        """Record one request in the object's history — as scalars: this
        runs once per request on every path, and the decision engine's
        callers hold columns, not ``Request`` objects.  ``last_evicted``
        afterwards names the object the ``max_objects`` cap dropped to
        make room (None = nothing).
        """
        if self._deferring:
            self._pending.extend((obj, time, cost))
            return
        if self._pending:
            self._flush()
        rows = self._rows
        row = rows.get(obj)
        cap = self._max_objects
        if row is None:
            row = rows[obj] = self._alloc_row()
        elif cap:
            rows.move_to_end(obj)
        seen = self._seen.item(row)
        self._times[row, seen % self._n_slots] = time
        self._seen[row] = seen + 1
        self._last_cost[row] = cost
        evicted = None
        if cap and len(rows) > cap:
            evicted, released = rows.popitem(last=False)
            self._free.append(released)
        self.last_evicted = evicted

    def defer_updates(self, on: bool) -> None:
        """Open (``True``) or close the deferred window.

        While it is open :meth:`update` only appends; the records are
        written, in request order, by one ``tracker_record`` call before
        the next read (module docstring).  The decision engine opens it
        around each window's replay.  A tracker with a ``max_objects``
        cap (read here, at each opening: the cap may be set after
        construction) and a process without the native module never
        defer — :meth:`update` records immediately, as it does for the
        scalar loop.  Closing writes nothing: what is pending is flushed
        by whoever reads next.
        """
        self._deferring = (
            on and not self._max_objects and _native.load() is not None
        )

    def _flush(self) -> None:
        """Write the pending records to the arena, in request order."""
        pending = self._pending
        self._pending = []
        objs, times, costs = pending[0::3], pending[1::3], pending[2::3]
        tracked = self._rows
        rows = list(map(tracked.get, objs))  # uncapped: no recency to keep
        if None in rows:
            for obj in objs:  # rows are handed out in request order
                if obj not in tracked:
                    tracked[obj] = self._alloc_row()
            rows = [tracked[obj] for obj in objs]
        self.last_evicted = None
        native = _native.load()
        if native is None:
            # Records deferred where the module was loaded (a tracker
            # unpickled elsewhere): the stores ``update`` makes.
            for row, time, cost in zip(rows, times, costs):
                seen = self._seen.item(row)
                self._times[row, seen % self._n_slots] = time
                self._seen[row] = seen + 1
                self._last_cost[row] = cost
            return
        rows = np.array(rows, dtype=np.int64)
        if not _native.all_below(rows, len(self._seen)):
            raise ValueError("tracked row outside the arena")
        times = np.array(times, dtype=np.float64)
        costs = np.array(costs, dtype=np.float64)
        # After the loop above: ``_alloc_row`` may have grown the arena.
        native.tracker_record(
            len(rows), self._n_slots, rows.ctypes.data,
            times.ctypes.data, costs.ctypes.data, self._times.ctypes.data,
            self._seen.ctypes.data, self._last_cost.ctypes.data,
        )

    def arena_summary(self, now: float) -> dict:
        """Distribution summary of the live arena state at time ``now``.

        One vectorised pass over the live rows — gather, subtract, mean —
        cheap enough to run at every training-window close, which is where
        :class:`repro.core.LFOOnline` publishes it as the
        ``online.feature_*`` gauges the ``feature_drift`` SLO objective
        watches.

        Returns ``tracked`` (live objects), ``recency_mean`` (mean trace
        time since each object's last request — the gap_1 population), and
        ``cost_mean`` (mean last retrieval cost), both summed in ascending
        arena-row order, whatever order the map is in.
        """
        n = self.n_tracked
        if n == 0:
            return {"tracked": 0, "recency_mean": 0.0, "cost_mean": 0.0}
        rows = np.sort(np.fromiter(self._rows.values(), dtype=np.int64, count=n))
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
        return per_object * self.n_tracked

    def forget(self, obj: int) -> None:
        """Drop state for an object (e.g. after long inactivity)."""
        if self._pending:
            self._flush()
        row = self._rows.pop(obj, None)
        if row is not None:
            self._free.append(row)

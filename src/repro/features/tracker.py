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
it) and ``last_cost`` vectors.  A new object always takes the next row
and no row is ever freed, so the slab never fragments and the object →
row map's insertion order is row order.  A feature row is one ring read
and one subtraction over the slab — no per-gap Python loop — and
:meth:`FeatureTracker.features_batch` gathers whole request windows,
given as columns, in one shot for the decision engine, the eviction
probes and dataset construction.

With the native module (:mod:`repro._native`) the row, the window probe
and the arena writes are its routines.  ``tracker_row`` reads one arena
row and, given a row to record into, stores the request there
(:meth:`FeatureTracker.features` and :meth:`FeatureTracker.advance` are
one call each).  ``tracker_gather`` takes a probe window's object list
and the object → row dict, resolves each id — its arena row, and for an
in-window repeat its previous position — in one C pass, and fills the
window's cost and gap columns row by row, both routines by one ring walk.
The numpy row and gather below (the gather's ids resolved by a dict
comprehension and one stable ``argsort``) stay as the references and the
no-compiler path, and each pair is bit-identical (subtractions over the
same stored floats).  ``tracker_map`` and ``tracker_record`` write a
*record window*: the decision engine probes each window it replays with
:meth:`FeatureTracker.features_window`, which keeps the probe's columns
and arena rows, and request ``i`` of the window counts as recorded once
the caller's decision list holds more than ``i`` entries.  Nothing is
called per decision: the decided records not yet written are written —
the objects the probe did not know mapped in first-occurrence order by
one ``tracker_map`` call, which inserts them into the dict, and given
one block of rows by the allocator ``update`` and ``advance`` use for
one, then one ``tracker_record`` call over array slices (a dict pass and
numpy stores without the module) — before the next read.  The invariant
is **no read sees an unwritten record**: every public reader —
``features``, ``advance``, ``features_batch``, ``n_tracked``,
``memory_bytes_naive``, ``update`` — writes them first.  Nothing native
is stored on the instance: each call is handed the live arena arrays and
dict, after any ``_alloc``, and checks their shapes and every row index
itself.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence, Sized
from time import perf_counter

import numpy as np

from .. import _native
from ..obs import get_registry
from ..trace import Request

__all__ = ["FeatureTracker", "MISSING_GAP", "feature_names"]

#: Sentinel for "no such past request": larger than any realistic gap so the
#: learner can separate "long ago" from "never".
MISSING_GAP = 1e9

#: Arena capacity starts here and doubles on demand.
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

    That pair is the definition of :meth:`advance`, the scalar request
    loops' one call.  The decision engine probes and records a whole
    window with :meth:`features_window`.  The state is unbounded: every
    object ever recorded keeps its row.

    Attributes:
        n_gaps: number of gap features (the paper uses 50).
    """

    def __init__(self, n_gaps: int = 50) -> None:
        if n_gaps <= 0:
            raise ValueError("n_gaps must be positive")
        self.n_gaps = n_gaps
        # One extra slot so gap_1 (now - last request) plus n_gaps-1
        # historical gaps are all available.
        self._n_slots = n_gaps + 1
        capacity = _INITIAL_CAPACITY
        self._times = np.zeros((capacity, self._n_slots), dtype=np.float64)
        self._last_cost = np.zeros(capacity, dtype=np.float64)
        #: requests recorded per row: the ring head is ``seen % n_slots``,
        #: the fill level ``min(seen, n_slots)``.
        self._seen = np.zeros(capacity, dtype=np.int64)
        #: object id → arena row, in row order.
        self._rows: dict[int, int] = {}
        self._next_row = 0
        #: The open record window, ``(objs, times, costs, rows,
        #: decided)`` (:meth:`features_window`), or None; its first
        #: ``_written`` records are in the arena.
        self._window: tuple | None = None
        self._written = 0
        #: The decision list :meth:`features_window` hands its probe.
        self._decided: Sized | None = None
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
        if self._window is not None:
            self._flush()
        return len(self._rows)

    # -- arena bookkeeping --------------------------------------------------

    def _alloc(self, n: int) -> int:
        """Hand out the next ``n`` rows (never handed out: all zeros) and
        return the first.  A full arena grows once, to the capacity that
        doubling row by row would reach."""
        first = self._next_row
        self._next_row = end = first + n
        capacity = new_capacity = len(self._seen)
        if end <= capacity:
            return first
        while new_capacity < end:
            new_capacity *= 2
        times = np.zeros((new_capacity, self._n_slots), dtype=np.float64)
        times[:capacity] = self._times
        self._times = times
        self._last_cost = np.resize(self._last_cost, new_capacity)
        self._last_cost[capacity:] = 0.0
        self._seen = np.resize(self._seen, new_capacity)
        self._seen[capacity:] = 0
        return first

    # -- extraction ---------------------------------------------------------

    def features(self, request: Request, free_bytes: int) -> np.ndarray:
        """Feature vector for ``request`` given current cache free space.

        Must be called *before* :meth:`update` for the same request, so
        gap_1 reflects the distance to the previous request.

        When a :class:`repro.obs.MetricsRegistry` is active, the
        extraction latency is observed into the
        ``features.extract_seconds`` histogram; with the default
        ``NullRegistry`` the only overhead is an attribute check.
        """
        if self._window is not None:
            self._flush()
        return self._row(
            self._rows.get(request.obj, -1), -1, request.time, request.size,
            request.cost, free_bytes,
        )

    def _bind_instruments(self, registry) -> None:
        self._obs_registry = registry
        self._obs_hist = registry.histogram("features.extract_seconds")
        self._obs_batch_hist = registry.histogram(
            "features.batch_extract_seconds"
        )
        self._obs_batch_rows = registry.histogram("features.batch_rows")

    def _row(self, row, record, time, size, cost, free_bytes) -> np.ndarray:
        """The feature row of arena row ``row`` (-1 = unseen), then, when
        ``record >= 0``, the request stored in row ``record``: one
        ``tracker_row`` call, or :meth:`_extract` then :meth:`_store`
        without the native module.  An active registry observes it."""
        registry = get_registry()
        if registry.enabled:
            if registry is not self._obs_registry:
                self._bind_instruments(registry)
            started = perf_counter()
        native = _native.load()
        if native is None:
            vec = self._extract(row, time, size, cost, free_bytes)
            if record >= 0:
                self._store(record, time, cost)
        else:
            vec = np.empty(self._n_slots + 2, dtype=np.float64)
            native.tracker_row(
                vec, self._times, self._seen, self._last_cost, row, record,
                time, size, cost, free_bytes, MISSING_GAP,
            )
        if registry.enabled:
            self._obs_hist.observe(perf_counter() - started)
        return vec

    def _extract(
        self, row: int, time: float, size: int, cost: float, free_bytes
    ) -> np.ndarray:
        """Arena row ``row``'s feature row (-1 = unseen) in numpy: the
        reference for ``tracker_row`` and the no-compiler path."""
        vec = np.empty(3 + self.n_gaps, dtype=np.float64)
        vec[0] = size
        vec[2] = free_bytes
        if row < 0:
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
    ) -> np.ndarray:
        """Feature matrix for a window of requests given as columns,
        probed: it records nothing and leaves the tracker exactly as
        found (a dataset probes a fresh tracker over its whole span).

        Args:
            objs / times / sizes / costs: the window's request columns
                (lists or arrays of equal length), in stream order; ids
                that are not a list of ints are converted once with
                ``operator.index``.
            free_bytes: free cache bytes — one scalar applied to every
                row, or a per-request sequence.

        Returns:
            ``(len(objs), n_features)`` float64 matrix, bit-identical to
            the rows of a :meth:`features` / :meth:`update` loop over the
            window.  A probe gets there without recording: objects new
            to the window are one vectorised gather from the arena, and
            a row whose object last occurred in the window at row ``p``
            is row ``p`` shifted — ``gap_1 = times[i] - times[p]``,
            ``gap_2.. = gap_1..`` of row ``p``, cost ``costs[p]``.  That
            is exact, not approximate: the loop would have stored
            ``times[p]`` and ``costs[p]``, the next extraction computes
            gap_1 as this very subtraction and every older gap from the
            same pair of stored floats row ``p`` was computed from, and
            the ``MISSING_GAP`` padding moves along.

        Raises:
            ValueError: the columns differ in length, or the object →
                row map names a row outside the arena — checked before
                the gather on either backend (the native one would read
                foreign memory where numpy raised); with the module, an
                id outside int64 too.
        """
        registry = get_registry()
        if not registry.enabled:
            return self._extract_batch(objs, times, sizes, costs, free_bytes)
        if registry is not self._obs_registry:
            self._bind_instruments(registry)
        started = perf_counter()
        X = self._extract_batch(objs, times, sizes, costs, free_bytes)
        self._obs_batch_hist.observe(perf_counter() - started)
        self._obs_batch_rows.observe(len(objs))
        return X

    def features_window(
        self,
        objs: list[int],
        times: Sequence[float],
        sizes: Sequence[int],
        costs: Sequence[float],
        free_bytes,
        decided: Sized,
    ) -> np.ndarray:
        """:meth:`features_batch` for a window the caller decides in
        order, recording it as it goes: request ``i`` counts as recorded
        once ``len(decided) > i`` (the engine hands its hit list).

        Nothing is called per decision.  The next read — the next
        window's probe included — first writes the decided records not
        yet written, as :meth:`update` calls right after each decision
        would have; a window left early keeps its decided prefix.  The
        window holds ``objs`` and the probe's arrays, so they must not
        change while it is open.
        """
        # Through ``features_batch``, so that a window's probe — and the
        # write of the window before it — is observed like every probe.
        self._decided = decided
        return self.features_batch(objs, times, sizes, costs, free_bytes)

    def _extract_batch(
        self, objs, times, sizes, costs, free_bytes
    ) -> np.ndarray:
        decided, self._decided = self._decided, None
        if type(objs) is not list:
            objs = list(map(operator.index, objs))
        n = len(objs)
        X = np.empty((n, self.n_features), dtype=np.float64)
        if not len(times) == len(sizes) == len(costs) == n:
            raise ValueError("request columns differ in length")
        if self._window is not None:
            self._flush()
        X[:, 0] = sizes
        X[:, 2] = free_bytes
        if n == 0:
            return X
        times = np.ascontiguousarray(times, dtype=np.float64)
        costs = np.ascontiguousarray(costs, dtype=np.float64)
        native = _native.load()
        if native is None:
            rows = self._gather_numpy(X, objs, times, costs)
        else:
            rows = np.empty(n, dtype=np.int64)
            args = (self._rows, rows, times, costs, self._times, self._seen,
                    self._last_cost, MISSING_GAP, X)
            try:
                native.tracker_gather(objs, *args)
            except ValueError:
                # The C pass takes exact ints only: a list holding other
                # integers (numpy's) is converted once, and any other
                # refusal raises again, as it wrote nothing.
                objs = list(map(operator.index, objs))
                native.tracker_gather(objs, *args)
        if decided is not None:
            self._window = (objs, times, costs, rows, decided)
            self._written = 0
        return X

    def _gather_numpy(self, X, objs, times, costs) -> np.ndarray:
        """The cost and gap columns of a probe window in numpy, and its
        rows column: the reference for ``tracker_gather`` and the
        no-compiler path.  The arena rows come from one pass over the
        object → row map and the in-window repeats from one stable
        ``argsort`` of the ids."""
        lookup = self._rows.get
        rows = np.array([lookup(obj, -1) for obj in objs], dtype=np.int64)
        if not _native.all_below(rows + 1, len(self._seen) + 1):
            raise ValueError("tracked row outside the arena")
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
        if len(set(objs)) == len(objs):
            return rows
        # In-window repeats: (row, the same object's previous row), in
        # row order, so that chains of repeats resolve front to back.
        ids = np.asarray(objs)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        again = np.flatnonzero(ids[1:] == ids[:-1])
        repeat, previous = order[again + 1], order[again]
        in_order = np.argsort(repeat)
        repeat, previous = repeat[in_order], previous[in_order]
        X[repeat, 1] = costs[previous]
        gaps[repeat, 0] = times[repeat] - times[previous]
        for i, p in zip(repeat.tolist(), previous.tolist()):
            gaps[i, 1:] = gaps[p, :-1]
        return rows

    # -- recording ----------------------------------------------------------

    def advance(self, request: Request, free_bytes: int) -> np.ndarray:
        """:meth:`features` then :meth:`update` for one request — that is
        its definition, bit for bit: the row reads the state before the
        request is recorded.

        A new object is mapped to its row first (growing the arena if
        needed; the row is still read as unseen), then one :meth:`_row`
        reads the old row and records into the mapped one.  The native,
        unobserved case is that ``tracker_row`` call, made here.
        """
        if self._window is not None:
            self._flush()
        obj = request.obj
        rows = self._rows
        row = record = rows.get(obj, -1)
        if row < 0:
            record = rows[obj] = self._alloc(1)
        native = _native.load()
        if native is None or get_registry().enabled:
            return self._row(
                row, record, request.time, request.size, request.cost,
                free_bytes,
            )
        vec = np.empty(self._n_slots + 2)
        # After ``_alloc``: it may have grown the arena.
        native.tracker_row(
            vec, self._times, self._seen, self._last_cost, row, record,
            request.time, request.size, request.cost, free_bytes, MISSING_GAP,
        )
        return vec

    def update(self, obj: int, time: float, cost: float) -> None:
        """Record one request in the object's history — as scalars, the
        three values a record stores.  A new object takes the next row.
        """
        if self._window is not None:
            self._flush()
        row = self._rows.get(obj)
        if row is None:
            row = self._rows[obj] = self._alloc(1)
        self._store(row, time, cost)

    def _store(self, row: int, time: float, cost: float) -> None:
        """One record's three stores, in numpy: the reference for
        ``tracker_record`` and ``tracker_row``'s record."""
        seen = self._seen.item(row)
        self._times[row, seen % self._n_slots] = time
        self._seen[row] = seen + 1
        self._last_cost[row] = cost

    def _flush(self) -> None:
        """Write the open window's decided records not written yet, in
        request order (:meth:`features_window`).  Objects the probe did
        not know, and that no earlier write or ``update`` has mapped
        since, get one block of rows in first-occurrence order, where
        ``update`` would have put them one by one: ``tracker_map`` then
        ``_alloc``, or :meth:`_map_numpy` without the module."""
        objs, times, costs, rows, decided = self._window
        start, end, n = self._written, len(decided), len(rows)
        if start < end:
            rows = rows[start:end]
            times, costs = times[start:end], costs[start:end]
            native = _native.load()
            if native is None:
                self._map_numpy(objs, start, rows)
                if not _native.all_below(rows, len(self._seen)):
                    raise ValueError("tracked row outside the arena")
                for row, time, cost in zip(
                    rows.tolist(), times.tolist(), costs.tolist()
                ):
                    self._store(row, time, cost)
            else:
                first = self._next_row
                self._alloc(
                    native.tracker_map(objs, start, rows, self._rows, first)
                    - first
                )
                # After ``_alloc``: it may have grown the arena.
                native.tracker_record(
                    rows, times, costs, self._times, self._seen,
                    self._last_cost,
                )
        # Marked written only once written: a refused run stays open, and
        # the next read refuses it again.
        self._written = end
        if end == n:
            self._window = None

    def _map_numpy(self, objs, start, rows) -> None:
        """``rows``' unmapped entries (-1), the run of ``objs`` from
        ``start``, mapped in numpy: the reference for ``tracker_map`` and
        the no-compiler path.  All or nothing: a mapped row outside
        ``[0, _next_row)`` is refused before any new row is handed out."""
        unseen = np.flatnonzero(rows < 0)
        if not len(unseen):
            return
        tracked = self._rows
        names = [objs[i] for i in (unseen + start).tolist()]
        known = [tracked[obj] for obj in names if obj in tracked]
        if not _native.all_below(np.array(known, dtype=np.int64),
                                 self._next_row):
            raise ValueError("tracked row outside the arena")
        new = [obj for obj in dict.fromkeys(names) if obj not in tracked]
        if new:
            first = self._alloc(len(new))
            tracked.update(zip(new, range(first, self._next_row)))
        rows[unseen] = [tracked[obj] for obj in names]

    def memory_bytes_naive(self) -> int:
        """The paper's back-of-envelope accounting: a dense per-object record
        of 50 gaps (4 B each) plus size, cost, and bookkeeping ≈ 208 B."""
        per_object = 4 * self.n_gaps + 8  # gaps + size/cost words
        return per_object * self.n_tracked

"""The decision engine: probe a lookahead window once, score it in
chunks, replay.

The scalar request loop (:meth:`repro.core.LFOCache.on_request`) scores
one request at a time; even with the compiled predictor, per-call
overhead dominates at one row per call.  :class:`DecisionEngine` takes
*lookahead windows* instead — four column slices ``(times, objs, sizes,
costs)``, never ``Request`` objects — but replays every decision
sequentially through :meth:`~repro.core.LFOCache.apply_scored`, so cache
semantics, the ``free_bytes`` trajectory and every score stay
bit-identical to the scalar loop (``tests/test_engines_differential.py``
pins hit vectors and score digests against it).  ``simulate(batch_size=N)``,
``lfo serve`` and the cluster's shard workers all drive this one engine.

The hazard is the feedback loop: a request's features include the
cache's *current* free bytes and the object's gap history, and earlier
requests of the same window change both.  One :meth:`step`:

1. **probes once** — one vectorised, read-only
   :meth:`~repro.features.FeatureTracker.features_batch` call, which
   resolves in-window repeats itself (a repeat's row is its object's
   previous row shifted one gap; why that is bit-exact is argued in its
   docstring).  The matrix then holds every row the scalar loop will
   see, except the free-bytes column: nothing is re-extracted, nothing
   probed is thrown away;
2. **scores in chunks** — what goes stale is scores, not rows.  The live
   free bytes are patched into the next chunk of rows and the chunk is
   scored in one compiled-predictor call.  A score holds for every
   free-bytes value between the same two consecutive ensemble
   thresholds (no split can tell such values apart —
   :meth:`repro.gbdt.CompiledPredictor.feature_thresholds`); the row
   handed on always carries the value its decision saw;
3. **re-scores on drift** — once the live value leaves the bucket (every
   admission into a full cache) a new chunk is scored from the current
   row: same rows, new free bytes.  The chunk length follows the
   observed drift interval (shrinks to the distance consumed, doubles
   back toward ``max_window`` on fully consumed chunks);
4. **keeps a dirty set for the one thing a probe cannot foresee** — a
   bounded tracker (``max_objects``) evicting another object's history
   mid-window (:attr:`~repro.features.FeatureTracker.last_evicted`).
   A dirty object's later rows are extracted and scored live, one at a
   time, as the scalar loop would.  Unbounded trackers never fill it;
5. **ends early only on a model swap** seen after a mid-window
   ``poll()``: the remaining scores came from the old model.

The replay runs inside the tracker's *deferred window*
(:meth:`~repro.features.FeatureTracker.defer_updates`): on an uncapped
tracker ``apply_scored``'s ``update`` calls only queue their records,
and whoever reads the tracker next — the next window's probe, an
eviction probe mid-window — writes them first, in one run.

Three hooks let a driver put its own work on the request path:

* ``poll()`` runs exactly once per request, *before* it is decided — the
  flag that says so is carried across a step a swap ended;
* ``cap()`` bounds each window (``LFOOnline.window_remaining``), so a
  training-window boundary and its retrain fall *between* windows;
* ``tap(index, hit, score)`` runs after each decision; drivers index the
  requests they hold, and the row used is ``policy.last_features``.

While ``policy.model`` is ``None`` (cold start) every score is 0.0 and
no free-bytes threshold splits a window.  The per-model predictor and
thresholds are cached by model identity, so a swap between steps (a shard
attaching a new slab generation) costs one lookup.  The dirty rows are the
only place a ``Request`` is built here (``FeatureTracker.features`` takes one).

Sampled eviction composes unchanged: candidate scoring happens inside
``apply_scored``'s eviction plan against the *live* state at that replay
point, its probes are pure reads, and the sampler's seeded generator is
consumed per plan in exactly the scalar order.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter
from typing import TYPE_CHECKING, Callable, MutableSequence

import numpy as np

from ..trace import Request

if TYPE_CHECKING:
    from ..obs.registry import Histogram
    from .lfo import LFOCache

__all__ = ["DecisionEngine", "MAX_LOOKAHEAD"]

#: Column of the free-bytes feature in the tracker's layout
#: (size, cost, free_bytes, gap_1..gap_N).
FREE_BYTES_COLUMN = 2

#: Smallest adaptive scoring chunk: below this the compiled-predictor
#: call cannot amortise its setup, so thrashy traffic stops shrinking here.
_MIN_WINDOW = 16

#: Default lookahead cap, shared by ``lfo serve`` and the shard workers.
MAX_LOOKAHEAD = 256


class DecisionEngine:
    """Drive an :class:`~repro.core.LFOCache` in lookahead windows.

    Args:
        policy: the cache to decide for.  Periodic full rescore
            (``rescore_interval``) is entangled with request order and
            is refused.
        max_window: rows probed per step (and the cap on the adaptive
            scoring chunk).
        poll / cap / tap: the driver hooks (module docstring).
        latency: histogram every ``apply_scored`` call's time is
            observed into (None = time nothing).  The serving SLO reads
            p999 per telemetry window, so it needs every decision.

    Single-consumer: one ``step`` at a time.  ``rows_probed`` (rows
    extracted, one per request unless a swap ended a step),
    ``n_respeculations`` (chunks re-scored because the free bytes left
    their bucket) and ``n_rescored`` (rows extracted and scored live
    because the tracker's cap evicted their object) count the protocol's
    work.
    """

    def __init__(
        self,
        policy: "LFOCache",
        max_window: int = MAX_LOOKAHEAD,
        *,
        poll: Callable[[], None] | None = None,
        cap: Callable[[], int] | None = None,
        tap: Callable[[int, bool, float], None] | None = None,
        latency: "Histogram | None" = None,
    ) -> None:
        if max_window < 1:
            raise ValueError("max_window must be at least 1")
        if policy.rescore_interval:
            raise ValueError(
                "periodic full rescore invalidates speculated scores; "
                "the decision engine requires rescore_interval=0"
            )
        self.policy = policy
        self.max_window = max_window
        self.n_rescored = 0
        self.n_respeculations = 0
        self.rows_probed = 0
        self._poll = poll
        self._cap = cap
        self._tap = tap
        self._latency = latency
        self._window = min(_MIN_WINDOW * 4, max_window)
        self._polled = False
        self._model = None
        self._predictor = None
        self._thresholds: list[float] = []

    def run(
        self,
        times: np.ndarray,
        objs: np.ndarray,
        sizes: np.ndarray,
        costs: np.ndarray,
        scores: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> list[bool]:
        """Decide every request of the four columns in order; the hits.

        ``scores`` / ``rows``, when given, are filled like :meth:`step`
        fills them.
        """
        n = len(objs)
        hits = [False] * n
        i = 0
        while i < n:
            i += self.step(times, objs, sizes, costs, i, hits, scores, rows)
        return hits

    def step(
        self,
        times: np.ndarray,
        objs: np.ndarray,
        sizes: np.ndarray,
        costs: np.ndarray,
        start: int,
        hits: MutableSequence[bool],
        scores: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> int:
        """Decide one window from row ``start`` of the request columns
        (numpy arrays of equal length); returns the rows consumed.

        ``hits[start:start + consumed]`` — a list or a boolean array at
        least ``len(objs)`` long, nothing else of it — is written once,
        after the replay; ``scores`` (a float64 array) and ``rows`` (an
        ``(n, n_features)`` float64 matrix) receive, per window, each
        decision's score and the feature row it used.  Always consumes
        at least one: row 0 is polled before the probe.
        """
        policy = self.policy
        tracker = policy.tracker
        poll = self._poll
        tap = self._tap
        latency = self._latency
        if poll is not None and not self._polled:
            poll()
        self._polled = False
        model = policy.model
        if model is not self._model:
            predictor = None if model is None else model.classifier.compiled()
            self._model = model
            self._predictor = predictor
            # Python floats: the bisect costs the comparisons of
            # ``np.searchsorted(side="left")`` without the call overhead.
            self._thresholds = [] if predictor is None else (
                predictor.feature_thresholds(FREE_BYTES_COLUMN).tolist()
            )
        predictor = self._predictor
        thresholds = self._thresholds
        limit = min(self.max_window, len(objs) - start)
        if self._cap is not None:
            limit = min(limit, self._cap())
        # Per window, not per trace: the replay wants Python scalars, and
        # a whole-trace copy of them would sit in memory for the run.
        window = slice(start, start + limit)
        w_objs = objs[window].tolist()
        w_times, w_sizes, w_costs = times[window], sizes[window], costs[window]
        X = tracker.features_batch(
            w_objs, w_times, w_sizes, w_costs, policy.free_bytes
        )
        w_times, w_sizes, w_costs = (
            w_times.tolist(), w_sizes.tolist(), w_costs.tolist()
        )
        w_scores = [0.0] * limit
        w_hits: list[bool] = []  # one per decision: ``consumed`` of them
        cache_size = policy.cache_size  # fixed at construction
        self.rows_probed += limit
        apply_scored = policy.apply_scored
        polls = poll is not None
        #: The next row still owes its poll (row 0 had it above).
        due = False
        capped = tracker.max_objects > 0
        #: Objects the tracker's cap evicted since the probe: their
        #: probed rows are stale and are recomputed live.
        dirty: set[int] = set()
        consumed = limit
        k = 0
        # The replay's ``update`` calls are written in one run before the
        # next read of the tracker (a capped one records immediately).
        tracker.defer_updates(True)
        try:
            while k < limit:
                # One scoring chunk: rows [k, m) under the live free bytes.
                m = min(k + self._window, limit)
                free = cache_size - policy.used_bytes
                bucket = bisect_left(thresholds, float(free))
                X[k:m, FREE_BYTES_COLUMN] = free
                chunk = [0.0] * (m - k) if predictor is None else (
                    predictor.predict_proba(X[k:m]).tolist()
                )
                w_scores[k:m] = chunk
                for j, obj, time, size, cost, score, features in zip(
                    range(k, m), w_objs[k:m], w_times[k:m], w_sizes[k:m],
                    w_costs[k:m], chunk, X[k:m],
                ):
                    if due:
                        poll()
                        due = False
                        if policy.model is not model:
                            # Stays set, so re-entry does not run the hook
                            # twice for this request.
                            self._polled = True
                            break
                    if dirty and obj in dirty:
                        features = tracker.features(
                            Request(time, obj, size, cost), policy.free_bytes
                        )
                        score = 0.0 if predictor is None else (
                            predictor.predict_proba_single(features)
                        )
                        X[j] = features
                        w_scores[j] = score
                        self.n_rescored += 1
                    else:
                        live = cache_size - policy.used_bytes
                        if live != free:
                            if bisect_left(thresholds, float(live)) != bucket:
                                break
                            # Same bucket, same scores; the rows still
                            # carry the value their decision sees.
                            free = live
                            X[j:m, FREE_BYTES_COLUMN] = free
                    if latency is None:
                        hit = apply_scored(
                            time, obj, size, cost, features, score
                        )
                    else:
                        began = perf_counter()
                        hit = apply_scored(
                            time, obj, size, cost, features, score
                        )
                        latency.observe(perf_counter() - began)
                    if capped:
                        evicted = tracker.last_evicted
                        if evicted is not None:
                            dirty.add(evicted)
                    w_hits.append(hit)
                    due = polls
                    if tap is not None:
                        tap(start + j, hit, score)
                else:
                    # A chunk the window's end cut short is no evidence.
                    if m - k == self._window:
                        self._window = min(self._window * 2, self.max_window)
                    k = m
                    continue
                if self._polled:
                    consumed = j
                    break
                # Free bytes left the bucket at row j (never the chunk's
                # first, which was scored under this very value): track the
                # observed drift interval and score again from there.
                self.n_respeculations += 1
                self._window = min(
                    max(_MIN_WINDOW, j - k + 1), self.max_window
                )
                k = j
        finally:
            tracker.defer_updates(False)
        hits[start:start + consumed] = w_hits
        if scores is not None:
            scores[start:start + consumed] = w_scores[:consumed]
        if rows is not None:
            rows[start:start + consumed] = X[:consumed]
        return consumed

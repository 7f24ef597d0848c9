"""The decision engine: speculate a lookahead window, replay, abandon.

The scalar request loop (:meth:`repro.core.LFOCache.on_request`) scores
one request at a time; even with the compiled predictor, per-call
overhead dominates at one row per call.  :class:`DecisionEngine` scores
*lookahead windows* instead — but replays every admission/eviction
decision sequentially through :meth:`~repro.core.LFOCache.apply_scored`,
so cache semantics, the ``free_bytes`` trajectory and every score stay
bit-identical to the scalar loop (``tests/test_engines_differential.py``
pins hit vectors and score digests against it).  The simulator
(``simulate(batch_size=N)``), the serving loop (``lfo serve``) and the
cluster's shard workers are all drivers of this one engine.

The hazard is the feedback loop: a request's feature vector includes the
cache's *current* free bytes and the object's gap history, both of which
earlier requests in the same window can change.  One :meth:`step`
therefore speculates and tracks exactly what could invalidate the
speculation:

1. extract the window's features against the tracker state and free
   bytes *at window start* (one vectorised probe, nothing recorded), and
   score them in one compiled-predictor call;
2. replay requests in order, maintaining a *dirty set* of objects whose
   tracker state changed since the probe — each replayed request's
   object, plus any object the tracker's LRU cap evicted
   (:attr:`repro.features.FeatureTracker.last_evicted`).  Only the
   tracker mutates gap/cost state, and during replay it mutates exactly
   these objects, so a clean object's speculated row *is* its live
   extraction except for the free-bytes column;
3. a clean row therefore reuses the speculative score after patching the
   live free-bytes value into the row — valid whenever the live value
   falls between the same pair of consecutive ensemble thresholds as the
   speculated one (two values no tree split can tell apart take
   identical paths, hence score identically — see
   :meth:`repro.gbdt.CompiledPredictor.feature_thresholds`);
4. a dirty row is extracted and scored individually — what the scalar
   loop computes;
5. once the free-bytes value drifts *out of the speculated bucket*, every
   remaining speculative score is stale at once, so the step abandons
   the window and the next step re-speculates from the broken row.  The
   lookahead length adapts to the observed drift interval (shrinks
   toward the distance actually consumed, doubles back toward
   ``max_window`` on fully consumed windows), so thrashy traffic
   degrades to small windows instead of wasted full-size probes.

Three hooks let a driver put its own work on the request path without
knowing any of the above:

* ``poll()`` runs exactly once per request, *before* the request is
  scored — the flag that says so is carried across abandoned windows.
  A model swap seen after a mid-window poll (a background trainer's
  install) abandons the window like a bucket drift: the remaining
  speculated scores came from the old model;
* ``cap()`` bounds each window (``LFOOnline.window_remaining``), so a
  training-window boundary and the retrain it triggers fall *between*
  windows, never under in-flight speculated scores;
* ``tap(index, request, hit, score)`` runs after each decision.  The row
  the decision used is ``policy.last_features``.

While ``policy.model`` is ``None`` (cold start) a step is the scalar
decomposition of one request — live features, score 0.0 — and the
engine starts speculating at the first step that finds a model.  The
per-model predictor and thresholds are cached by model identity, so a
swap between steps (a shard attaching a new slab generation) costs one
lookup.

Sampled eviction (``LFOCache(eviction="sampled")``) composes unchanged:
candidate sampling and scoring happen inside ``apply_scored``'s eviction
plan, against the *live* tracker and free-bytes state at that replay
point, candidate probes are pure reads (``features_batch`` probe mode),
so they neither dirty speculated rows nor advance tracker state, and the
sampler's seeded generator is consumed per plan in exactly the scalar
order.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter
from typing import TYPE_CHECKING, Callable, MutableSequence, Sequence

from ..trace import Request

if TYPE_CHECKING:
    from ..obs.registry import Histogram
    from .lfo import LFOCache

__all__ = ["DecisionEngine", "MAX_LOOKAHEAD"]

#: Column of the free-bytes feature in the tracker's layout
#: (size, cost, free_bytes, gap_1..gap_N).
FREE_BYTES_COLUMN = 2

#: Smallest adaptive lookahead: below this the vectorised probe cannot
#: amortise its setup, so thrashy traffic stops shrinking here.
_MIN_WINDOW = 16

#: Default lookahead cap, shared by ``lfo serve`` and the shard workers.
MAX_LOOKAHEAD = 256


class DecisionEngine:
    """Drive an :class:`~repro.core.LFOCache` in speculative windows.

    Args:
        policy: the cache to decide for.  Periodic full rescore
            (``rescore_interval``) is entangled with request order and
            is refused.
        max_window: cap on the adaptive lookahead length.
        poll / cap / tap: the driver hooks (module docstring).
        latency: histogram the time of each timed ``apply_scored`` call
            is observed into (None = time nothing).
        timed_per_window: how many leading decisions of each window are
            timed; None times every decision.  Two values are in use
            and cannot be one: the serving SLO reads p999 per telemetry
            window and needs every decision, while timing one costs
            ~0.4 µs (two clock reads, one histogram observe) — ~4% of a
            ~10 µs batched-simulator decision, over the <3% telemetry
            budget ``bench_ext_obs_overhead`` holds the simulator to —
            so the simulator times a leading cluster of 8.

    Single-consumer: one ``step`` at a time.  ``n_rescored`` (dirty rows
    scored live), ``n_respeculations`` (abandoned windows) and
    ``rows_probed`` (rows speculated) count the protocol's work.
    """

    def __init__(
        self,
        policy: "LFOCache",
        max_window: int = MAX_LOOKAHEAD,
        *,
        poll: Callable[[], None] | None = None,
        cap: Callable[[], int] | None = None,
        tap: Callable[[int, Request, bool, float], None] | None = None,
        latency: "Histogram | None" = None,
        timed_per_window: int | None = None,
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
        self._timed_per_window = timed_per_window
        self._window = min(_MIN_WINDOW * 4, max_window)
        self._polled = False
        self._model = None
        self._predictor = None
        self._thresholds: list[float] = []

    def run(self, requests: Sequence[Request]) -> list[bool]:
        """Decide every request in order; per-request hits."""
        n = len(requests)
        hits = [False] * n
        i = 0
        while i < n:
            i += self.step(requests, i, hits)
        return hits

    def step(
        self,
        requests: Sequence[Request],
        start: int,
        hits: MutableSequence[bool],
    ) -> int:
        """Decide one window from ``requests[start]``; returns consumed.

        ``hits[start + k]`` is set for each consumed request (a list or
        a boolean array, at least ``len(requests)`` long).  Always
        consumes at least one: row 0 is polled before the probe and its
        free-bytes value is the probe's by construction.
        """
        policy = self.policy
        tracker = policy.tracker
        poll = self._poll
        tap = self._tap
        latency = self._latency
        if poll is not None and not self._polled:
            poll()
            self._polled = True
        model = policy.model
        if model is None:
            request = requests[start]
            features = tracker.features(request, policy.free_bytes)
            if latency is not None:
                began = perf_counter()
                hit = policy.apply_scored(request, features, 0.0)
                latency.observe(perf_counter() - began)
            else:
                hit = policy.apply_scored(request, features, 0.0)
            hits[start] = hit
            self._polled = False
            if tap is not None:
                tap(start, request, hit, 0.0)
            return 1
        if model is not self._model:
            predictor = model.classifier.compiled()
            self._model = model
            self._predictor = predictor
            # Python floats: the per-row bisect costs the comparisons of
            # ``np.searchsorted(side="left")`` without the call overhead.
            self._thresholds = predictor.feature_thresholds(
                FREE_BYTES_COLUMN
            ).tolist()
        predictor = self._predictor
        thresholds = self._thresholds
        limit = min(self._window, len(requests) - start)
        if self._cap is not None:
            limit = min(limit, self._cap())
        batch = requests[start:start + limit]
        free0 = policy.free_bytes
        speculated = tracker.features_batch(batch, free0)
        scores = predictor.predict_proba(speculated)
        spec_bucket = bisect_left(thresholds, float(free0))
        self.rows_probed += limit
        if latency is None:
            timed_limit = 0
        elif self._timed_per_window is None:
            timed_limit = limit
        else:
            timed_limit = self._timed_per_window
        #: objects whose tracker state changed since the probe — their
        #: speculated rows are stale and must be recomputed live.
        dirty: set[int] = set()
        consumed = limit
        n_rescored = 0
        for k, request in enumerate(batch):
            if poll is not None and not self._polled:
                poll()
                # Stays set across an abandon, so re-entry does not run
                # the hook twice for this request.
                self._polled = True
                if policy.model is not model:
                    consumed = k
                    break
            obj = request.obj
            if obj in dirty:
                # Re-requested (or cap-evicted) inside the window.
                features = tracker.features(request, policy.free_bytes)
                score = predictor.predict_proba_single(features)
                n_rescored += 1
            else:
                free_live = policy.free_bytes
                if bisect_left(thresholds, float(free_live)) != spec_bucket:
                    # Never at k == 0: row 0's free bytes are ``free0``.
                    consumed = k
                    break
                features = speculated[k]
                features[FREE_BYTES_COLUMN] = free_live
                score = float(scores[k])
            if k < timed_limit:
                began = perf_counter()
                hit = policy.apply_scored(request, features, score)
                latency.observe(perf_counter() - began)
            else:
                hit = policy.apply_scored(request, features, score)
            dirty.add(obj)
            evicted = tracker.last_evicted
            if evicted is not None:
                dirty.add(evicted)
            hits[start + k] = hit
            self._polled = False
            if tap is not None:
                tap(start + k, request, hit, score)
        self.n_rescored += n_rescored
        if consumed == limit:
            self._window = min(self._window * 2, self.max_window)
        else:
            self.n_respeculations += 1
            # Track the observed drift interval (+1 so the broken row,
            # which the next window must re-cover, still fits).
            self._window = min(
                max(_MIN_WINDOW, consumed + 1), self.max_window
            )
        return consumed

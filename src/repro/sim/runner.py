"""Trace-driven cache simulation and hit-ratio accounting.

``simulate`` drives a policy one request at a time, or — when
``batch_size > 1`` and the policy's ``supports_batched_scoring`` is true
(a static model, no periodic rescore) — through the decision engine
(:mod:`repro.core.engine`, which owns the probe → score → replay
protocol) in lookahead windows.  Policies that retrain mid-stream
(``LFOOnline``) opt out of the engine and run in the scalar loop, one
``on_request`` per request, retraining as their windows close.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..cache import CachePolicy
from ..obs import get_registry
from ..trace import Trace

__all__ = ["SimResult", "simulate", "record_free_bytes"]


class _MetricsFolder:
    """Incremental counter folding at chunk boundaries.

    The request path stays untouched: per-chunk, the folder vectorises
    the hit/byte sums over just the new slice, bumps the same counters
    the old end-of-run fold produced (identical totals), refreshes the
    cache gauges, and gives a windowed registry its roll checkpoint —
    which is what turns cumulative counters into live window deltas.
    """

    def __init__(self, registry, policy, sizes, hits) -> None:
        self._registry = registry
        self._policy = policy
        self._sizes = sizes
        # One prefix-sum pass up front makes each fold's total-bytes a
        # two-element lookup instead of an O(window) sum — folds run
        # mid-simulation with cold caches, where every slice pass costs
        # several times its microbenchmarked price.
        self._size_csum = np.cumsum(sizes, dtype=np.int64)
        self._hits = hits
        self._folded = 0
        self._evictions_prev = getattr(policy, "n_evictions", 0)
        self._requests = registry.counter("sim.requests")
        self._hits_counter = registry.counter("sim.hits")
        self._misses = registry.counter("sim.misses")
        self._hit_bytes = registry.counter("sim.hit_bytes")
        self._miss_bytes = registry.counter("sim.miss_bytes")
        self._evictions = registry.counter("sim.evictions")
        self._used_gauge = registry.gauge("sim.cache_used_bytes")
        self._objects_gauge = registry.gauge("sim.cache_objects")

    def fold(self, upto: int) -> None:
        """Fold requests ``[folded, upto)`` into the registry and offer
        the windowed registry a roll checkpoint.

        The work is wrapped in a ``sim.metrics_fold`` span, so a run's
        registry snapshot carries its own telemetry bill — what the
        overhead benchmark gates on.
        """
        if upto <= self._folded:
            return
        with self._registry.span("sim.metrics_fold"):
            self._fold(upto)

    def _fold(self, upto: int) -> None:
        # Two numpy calls, not five: mid-run folds execute with caches
        # full of the policy's dict working set, where every numpy API
        # entry pays a cold-dispatch penalty an order of magnitude above
        # its microbenchmarked cost.  ``dot`` folds the hit/size product
        # in one call and the size prefix-sum (built once at init) turns
        # the window's total bytes into two scalar lookups.
        window = slice(self._folded, upto)
        hits = self._hits[window]
        n = upto - self._folded
        n_hits = int(np.count_nonzero(hits))
        hit_bytes = int(np.dot(self._sizes[window], hits))
        total_bytes = int(self._size_csum[upto - 1]) - (
            int(self._size_csum[self._folded - 1]) if self._folded else 0
        )
        self._requests.inc(n)
        self._hits_counter.inc(n_hits)
        self._misses.inc(n - n_hits)
        self._hit_bytes.inc(hit_bytes)
        self._miss_bytes.inc(total_bytes - hit_bytes)
        evictions = getattr(self._policy, "n_evictions", 0)
        if evictions != self._evictions_prev:
            self._evictions.inc(evictions - self._evictions_prev)
            self._evictions_prev = evictions
        self._used_gauge.set(getattr(self._policy, "used_bytes", 0))
        self._objects_gauge.set(getattr(self._policy, "n_objects", 0))
        self._folded = upto
        self._registry.maybe_roll()


def _run_batched(
    trace: Trace,
    policy: CachePolicy,
    batch_size: int,
    hits: np.ndarray,
    on_request: Callable[[int, bool], None] | None,
    folder: _MetricsFolder | None,
) -> None:
    """The decision engine over ``trace`` in ``batch_size`` lookahead
    windows, filling ``hits`` — bit-identical to the scalar loop.

    The trace's four columns go to the engine as they are (no
    ``Request`` is touched), ``on_request`` rides the engine's
    post-decision tap, and ``folder`` folds counters and offers window
    rolls at window edges, so nothing is added to the per-request path.
    """
    from ..core.engine import DecisionEngine  # repro.core imports repro.sim

    registry = get_registry()
    observing = registry.enabled
    engine = DecisionEngine(
        policy,
        batch_size,
        tap=(
            None if on_request is None
            else lambda index, hit, _score: on_request(index, hit)
        ),
    )
    if observing:
        rows_hist = registry.histogram("sim.batch_rows")
    times, objs, sizes, costs = (
        trace.times, trace.objs, trace.sizes, trace.costs
    )
    n = len(objs)
    i = 0
    while i < n:
        probed = engine.rows_probed
        i += engine.step(times, objs, sizes, costs, i, hits)
        if observing:
            rows_hist.observe(engine.rows_probed - probed)
        if folder is not None:
            folder.fold(i)
    if observing:
        if engine.n_rescored:
            registry.counter("sim.batch_rescored").inc(engine.n_rescored)
        if engine.n_respeculations:
            registry.counter("sim.batch_respeculations").inc(
                engine.n_respeculations
            )


@dataclass
class SimResult:
    """Outcome of simulating one policy over one trace.

    Hit ratios are reported both over the whole trace and excluding a
    warmup prefix (cold caches understate steady-state performance).

    Attributes:
        policy: policy name.
        n_requests: trace length.
        hits: per-request hit flags.
        bhr: byte hit ratio after warmup.
        ohr: object hit ratio after warmup.
        chr: cost hit ratio after warmup — the fraction of total retrieval
            cost saved by hits (equals BHR when cost == size, and models
            latency savings when costs are per-object latencies, §2.1).
        bhr_full / ohr_full: ratios over the entire trace.
        warmup: number of requests excluded from the headline ratios.
        series: windowed BHR time series (window size in ``series_window``).
        training: retraining counters for self-training policies
            (``n_retrains``, ``n_skipped_retrains``, ``n_failed_retrains``,
            ``last_training_seconds``, ``training_pending`` — see
            :class:`repro.core.LFOOnline`), or None for static policies.
        metrics: snapshot of the active :mod:`repro.obs` registry taken when
            the simulation finished (counters, histograms, span aggregates),
            or None when observability is disabled.  Note the registry is
            process-wide: back-to-back simulations under one registry see
            cumulative values.
        resilience: degradation counters for policies that expose
            ``resilience_stats`` (``n_watchdog_cancels``,
            ``n_backoff_skips``, ``n_staleness_fallbacks``,
            ``n_staleness_recoveries``, ``degraded``, ``training_halted``
            — see :class:`repro.core.LFOOnline`), or None otherwise.
    """

    policy: str
    n_requests: int
    hits: np.ndarray
    bhr: float
    ohr: float
    chr: float
    bhr_full: float
    ohr_full: float
    warmup: int
    series: np.ndarray = field(default_factory=lambda: np.array([]))
    series_window: int = 0
    training: dict[str, float | int | bool] | None = None
    metrics: dict | None = None
    resilience: dict[str, float | int | bool] | None = None

    def to_dict(self, include_hits: bool = False) -> dict:
        """JSON-safe view of the result (ndarrays become lists / summaries).

        The per-request ``hits`` vector is summarised to ``n_hits`` unless
        ``include_hits`` asks for the full boolean list; the windowed
        ``series`` is always included (it is already bounded).
        """
        out = {
            "policy": self.policy,
            "n_requests": self.n_requests,
            "n_hits": int(self.hits.sum()),
            "bhr": float(self.bhr),
            "ohr": float(self.ohr),
            "chr": float(self.chr),
            "bhr_full": float(self.bhr_full),
            "ohr_full": float(self.ohr_full),
            "warmup": int(self.warmup),
            "series": [float(v) for v in self.series],
            "series_window": int(self.series_window),
            "training": dict(self.training) if self.training else None,
            "metrics": self.metrics,
            "resilience": dict(self.resilience) if self.resilience else None,
        }
        if include_hits:
            out["hits"] = [bool(h) for h in self.hits]
        return out


def simulate(
    trace: Trace,
    policy: CachePolicy,
    warmup_fraction: float = 0.2,
    series_window: int = 0,
    on_request: Callable[[int, bool], None] | None = None,
    batch_size: int = 0,
) -> SimResult:
    """Run a policy over a trace and compute hit ratios.

    Args:
        trace: the request stream.
        policy: a cache policy instance (consumed/mutated; pass a fresh one
            per run for independent results).
        warmup_fraction: fraction of leading requests excluded from the
            headline BHR/OHR.
        series_window: if > 0, also compute a windowed BHR series.
        on_request: optional observer called with (index, hit) per request.
        batch_size: when > 1 and the policy's ``supports_batched_scoring``
            is true, score requests in speculative lookahead batches
            through the decision engine — bit-identical hits and free-bytes
            trajectory, just faster.  0 (default) keeps the scalar loop;
            the value is a pure performance knob, never a semantic one.
    """
    n = len(trace)
    if n == 0:
        raise ValueError("cannot simulate an empty trace")
    registry = get_registry()
    hits = np.zeros(n, dtype=bool)
    batched = batch_size > 1 and getattr(
        policy, "supports_batched_scoring", False
    )
    sizes = trace.sizes
    costs = trace.costs
    folder = (
        _MetricsFolder(registry, policy, sizes, hits)
        if registry.enabled
        else None
    )
    with registry.span("sim.request_loop"):
        if batched:
            _run_batched(trace, policy, batch_size, hits, on_request, folder)
        elif folder is None or not registry.every_requests:
            for i, request in enumerate(trace):
                hit = policy.on_request(request)
                hits[i] = hit
                if on_request is not None:
                    on_request(i, hit)
        else:
            # A windowed registry: the same loop, folded exactly at each
            # window edge.  A fold's cost is the fixed price of entering
            # numpy mid-run, not its length, so a cumulative registry
            # folds once, after the loop.
            every = registry.every_requests
            requests = trace.requests
            for start in range(0, n, every):
                end = min(start + every, n)
                for i in range(start, end):
                    hit = policy.on_request(requests[i])
                    hits[i] = hit
                    if on_request is not None:
                        on_request(i, hit)
                folder.fold(end)
    if folder is not None:
        folder.fold(n)
    warmup = int(warmup_fraction * n)
    warm_slice = slice(warmup, None)

    def ratios(sl: slice) -> tuple[float, float, float]:
        h = hits[sl]
        s = sizes[sl]
        c = costs[sl]
        total_bytes = float(s.sum())
        total_cost = float(c.sum())
        bhr = float(s[h].sum()) / total_bytes if total_bytes else 0.0
        ohr = float(h.mean()) if len(h) else 0.0
        cost_hr = float(c[h].sum()) / total_cost if total_cost else 0.0
        return bhr, ohr, cost_hr

    bhr, ohr, cost_hr = ratios(warm_slice)
    bhr_full, ohr_full, _ = ratios(slice(None))

    series = np.array([])
    if series_window > 0:
        n_windows = n // series_window
        series = np.empty(n_windows, dtype=np.float64)
        for w in range(n_windows):
            sl = slice(w * series_window, (w + 1) * series_window)
            series[w], _, _ = ratios(sl)

    training = getattr(policy, "training_stats", None)
    if training is not None:
        training = dict(training)  # snapshot: the policy keeps mutating
    resilience = getattr(policy, "resilience_stats", None)
    if resilience is not None:
        resilience = dict(resilience)

    # Counters were folded at chunk boundaries by the _MetricsFolder —
    # identical totals to per-request increments, zero cost on the
    # request path, and live enough for windowed telemetry mid-run.
    metrics = registry.to_dict() if registry.enabled else None

    return SimResult(
        policy=policy.name,
        n_requests=n,
        hits=hits,
        bhr=bhr,
        ohr=ohr,
        chr=cost_hr,
        bhr_full=bhr_full,
        ohr_full=ohr_full,
        warmup=warmup,
        series=series,
        series_window=series_window,
        training=training,
        metrics=metrics,
        resilience=resilience,
    )


def record_free_bytes(trace: Trace, policy: CachePolicy) -> np.ndarray:
    """Simulate a policy and record the cache's free bytes *before* each
    request — the observation LFO's free-bytes feature is built from."""
    n = len(trace)
    free = np.empty(n, dtype=np.int64)
    for i, request in enumerate(trace):
        free[i] = policy.free_bytes
        policy.on_request(request)
    return free

"""One timed repeat of each deployment shape, from fresh policy state.

Three shapes, one result type: ``simulate`` (scalar or batched), the
asyncio ``ServingLoop`` over a retraining ``LFOOnline``, and a
``CacheCluster`` of shard processes.  Each runner builds fresh policy
state, times the section a deployment would run continuously, and
returns the decisions so the caller can check them.  Closed loop, one
driver: the next batch is handed in only after the previous one
returned.  Per-decision service times come from a separate *stamped*
``simulate`` pass, never from a timed repeat, or from the clock reads
around each ``process(batch)`` call.

Every repeat samples the host's speed (:class:`host.HostSpeed`) before
and after, and an untraced one throughout: every ``SEGMENT`` requests of
``simulate`` (from an ``on_request`` observer that otherwise does one
modulo a request, about 0.1 us of a 10 us decision, and is in the
reported times), before every ``process`` call elsewhere.  Time spent
sampling is in no reported time.
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.cluster import CacheCluster, HashRing
from repro.core import LFOCache, LFOOnline
from repro.obs import WindowedRegistry, use_registry
from repro.resilience import SimulatedTrainerExecutor
from repro.serve import BatchScorer, ServeConfig, ServingLoop, TraceReplayDriver
from repro.sim import simulate
from repro.trace import Trace

from host import HostSpeed, children_peak_rss_mb, cpu_seconds
from spans import Tracer
from workloads import RING_SEED, Inputs, Workload

__all__ = ["Repeat", "run_repeat", "cluster_reference"]

#: Leading share of each run excluded from ``bhr`` (cold cache).
WARMUP_FRACTION = 0.2

#: Requests of ``simulate`` between two host speed samples: ~25 ms, short
#: next to the 0.1-0.3 s interference episodes the samples must follow.
SEGMENT = 2_000


@dataclass
class Repeat:
    """What one repeat of the timed section produced."""

    requests: int  # requests handed in during the timed section
    began: float  # ``perf_counter`` at the first timed request
    wall: float
    cpu: float  # of this process and its live children
    speed: HostSpeed  # the host speed samples taken through the repeat
    #: what ``wall`` and ``cpu`` are divided by, and what ``decisions``
    #: are: they differ for the serving loop, whose wall is training and
    #: whose decisions are the cache engine's.
    factor: float
    decision_factor: float
    hits: np.ndarray  # every decision returned, warm-up batch included
    dropped: int = 0
    #: (seconds, rows, models installed meanwhile) of each ``process``
    #: call (serve and cluster).
    batches: list = field(default_factory=list)
    #: per-decision service times in seconds: the gaps between the
    #: completions a stamped ``simulate`` pass saw, or each batch's
    #: seconds / rows.  Empty for an unstamped ``simulate``.
    decisions: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: shape-specific counters read after the run (see each runner).
    counters: dict = field(default_factory=dict)
    spawn_seconds: float = 0.0
    children_rss_mb: float = 0.0


def warm_bhr(sizes: np.ndarray, hits: np.ndarray) -> float:
    """Byte hit ratio after the warm-up prefix."""
    warmup = int(WARMUP_FRACTION * len(hits))
    sizes = sizes[warmup:]
    return float(sizes[hits[warmup:]].sum() / sizes.sum())


def _batch_decisions(batches: list) -> np.ndarray:
    seconds, rows, _installed = np.array(batches).T
    return seconds / rows


def _policy_counters(policies: list[LFOCache]) -> dict:
    """Work counts readable from outside, summed over policies."""
    return {
        "evictions": sum(p.n_evictions for p in policies),
        # Every insert is still resident or was evicted later; restored
        # victims of aborted plans are counted in neither.
        "admits": sum(p.n_evictions + p.n_objects for p in policies),
        "tracked_objects": sum(p.tracker.n_tracked for p in policies),
    }


# -- simulate ----------------------------------------------------------------


def _policy(workload: Workload, inputs: Inputs, cache_size: int) -> LFOCache:
    return LFOCache(cache_size, model=inputs.model, eviction=workload.eviction)


def _run_sim(
    workload: Workload, inputs: Inputs, tracer: Tracer | None, stamped: bool
) -> Repeat:
    """``simulate`` over the trace.

    ``stamped``: the ``on_request`` observer also records when each
    decision completed (one clock read and one append a request).  The
    gap between consecutive stamps is what one decision cost, loop
    included; the gap that holds a host speed sample (the first of each
    segment) is dropped.
    """
    policy = _policy(workload, inputs, inputs.cache_size)
    speed = HostSpeed()
    stamps: list[float] = []
    observer = None
    if stamped:
        def observer(
            index, _hit,
            _sample=speed.sample, _stamp=stamps.append, _now=perf_counter,
        ):
            _stamp(_now())
            if index % SEGMENT == SEGMENT - 1:
                _sample()
    elif tracer is None:
        def observer(index, _hit, _sample=speed.sample):
            if index % SEGMENT == SEGMENT - 1:
                _sample()
    speed.sample()
    sampling = speed.seconds
    began_cpu = cpu_seconds()
    began = perf_counter()
    with tracer.span("sim.simulate") if tracer is not None else nullcontext():
        result = simulate(
            inputs.trace, policy,
            batch_size=workload.batch_size, on_request=observer,
        )
    sampling = speed.seconds - sampling
    wall = perf_counter() - began - sampling
    cpu = cpu_seconds() - began_cpu - sampling
    speed.sample()
    gaps = np.diff(np.array(stamps))
    return Repeat(
        requests=len(inputs.trace),
        began=began,
        wall=wall,
        cpu=cpu,
        speed=speed,
        factor=speed.factor(),
        decision_factor=speed.factor(),
        hits=result.hits,
        decisions=gaps[np.arange(1, len(gaps) + 1) % SEGMENT != 0],
        counters=_policy_counters([policy]),
    )


# -- serving loop ------------------------------------------------------------


class _TimedScorer:
    """``ServingLoop(scorer=...)`` shim: times each ``process`` call,
    notes whether a model was installed inside it, and samples the host's
    speed before it (``speed`` is None in a traced repeat)."""

    def __init__(
        self, inner: BatchScorer, policy: LFOOnline, speed: HostSpeed | None
    ) -> None:
        self.inner = inner
        self.policy = policy
        self.speed = speed
        self.batches: list[tuple[float, int, int]] = []

    @property
    def n_handoffs(self) -> int:
        return self.inner.n_handoffs

    def process(self, requests) -> list[bool]:
        if self.speed is not None:
            self.speed.sample()
        installed = self.policy.n_retrains
        began = perf_counter()
        hits = self.inner.process(requests)
        self.batches.append((
            perf_counter() - began, len(requests),
            self.policy.n_retrains - installed,
        ))
        return hits


def _run_serve(
    workload: Workload, inputs: Inputs, tracer: Tracer | None
) -> Repeat:
    """``lfo serve --trainer inline`` with library defaults, in-process."""
    registry = WindowedRegistry(
        every_requests=inputs.telemetry_every,
        request_counter="serve.requests",
    )
    hits: list[bool] = []
    speed = HostSpeed()
    with use_registry(registry):
        executor = SimulatedTrainerExecutor()
        policy = LFOOnline(
            inputs.cache_size,
            window=inputs.window,
            background=True,
            executor=executor,
        )
        config = ServeConfig()
        scorer = _TimedScorer(
            BatchScorer(policy, max_batch=config.max_batch), policy,
            speed if tracer is None else None,
        )
        loop = ServingLoop(
            policy,
            TraceReplayDriver(inputs.requests),
            config,
            on_decision=lambda _request, hit: hits.append(hit),
            scorer=scorer,
        )
        speed.sample()
        sampling = speed.seconds
        began_cpu = cpu_seconds()
        began = perf_counter()
        report = asyncio.run(loop.run())
        # Each ~4 s training job sits inside one ``process`` call, so the
        # samples taken before every call bracket it.
        sampling = speed.seconds - sampling
        wall = perf_counter() - began - sampling
        cpu = cpu_seconds() - began_cpu - sampling
        speed.sample()
        policy.close()
        executor.shutdown()
    counters = _policy_counters([policy])
    counters.update(
        windows_trained=policy.n_retrains,
        windows_skipped=policy.n_skipped_retrains,
        windows_failed=policy.n_failed_retrains,
        backpressure_waits=report.backpressure_waits,
        model_handoffs=report.model_handoffs,
        drained=report.drained,
        telemetry_windows=len(registry.windows()),
    )
    return Repeat(
        requests=len(inputs.requests),
        began=began,
        wall=wall,
        cpu=cpu,
        speed=speed,
        factor=speed.factor(object_share=0.0),
        decision_factor=speed.factor(),
        hits=np.array(hits, dtype=bool),
        dropped=report.dropped,
        batches=scorer.batches,
        decisions=_batch_decisions(scorer.batches),
        counters=counters,
    )


# -- cluster -----------------------------------------------------------------


def _run_cluster(
    workload: Workload, inputs: Inputs, tracer: Tracer | None
) -> Repeat:
    """Route the trace through shard processes in fixed batches.

    Spawn, publish and the first batch (model attach and C-kernel build
    in every shard) are set-up; the timed section is every later batch.
    Under tracing, each shard's busy time per batch comes from
    ``shard_stats()`` deltas and is recorded as a synthetic child span of
    the router's ``process`` span.
    """
    requests = inputs.requests
    step = inputs.cluster_batch
    n = len(requests)
    spawn_began = perf_counter()
    cluster = CacheCluster(
        inputs.cache_size, workload.shards, seed=RING_SEED
    ).start()
    try:
        publish_began = perf_counter()
        cluster.publish(inputs.model)
        publish_seconds = perf_counter() - publish_began
        hits = list(cluster.process(requests[:step]))
        spawn_seconds = perf_counter() - spawn_began
        batches: list[tuple[float, int, int]] = []
        shard_samples: list[list[dict]] = []
        stats_start = previous = cluster.shard_stats()
        if tracer is not None:
            tracer.clear()  # spans of the warm-up batch are set-up
        speed = HostSpeed()
        speed.sample()
        sampling = speed.seconds
        began_cpu = cpu_seconds()
        began = perf_counter()
        with tracer.span("cluster.run") if tracer is not None else nullcontext():
            for start in range(step, n, step):
                batch = requests[start:start + step]
                if tracer is None and start > step:
                    speed.sample()
                batch_began = perf_counter()
                first_span = len(tracer.records) if tracer is not None else 0
                hits.extend(cluster.process(batch))
                batches.append((perf_counter() - batch_began, len(batch), 0))
                if tracer is not None:
                    current = cluster.shard_stats()
                    shard_samples.append(current)
                    _record_shard_spans(tracer, first_span, previous, current)
                    previous = current
        sampling = speed.seconds - sampling
        wall = perf_counter() - began - sampling
        cpu = cpu_seconds() - began_cpu - sampling
        speed.sample()
        stats = cluster.shard_stats()
        children_rss = children_peak_rss_mb()
    finally:
        cluster.close()
    return Repeat(
        requests=n - min(step, n),
        began=began,
        wall=wall,
        cpu=cpu,
        speed=speed,
        factor=speed.factor(),
        decision_factor=speed.factor(),
        hits=np.array(hits, dtype=bool),
        batches=batches,
        decisions=_batch_decisions(batches),
        counters={
            "publish_seconds": publish_seconds,
            "shard_stats_start": stats_start,
            "shard_stats": stats,
            "shard_samples": shard_samples,
            "score_digests": [s["score_digest"] for s in stats],
        },
        spawn_seconds=spawn_seconds,
        children_rss_mb=children_rss,
    )


def _record_shard_spans(
    tracer: Tracer, process_span: int, previous: list[dict], current: list[dict]
) -> None:
    """Synthetic per-shard busy spans under the batch's ``process`` span.

    ``process_span`` is the first span the batch opened.  Shards start
    once the router has partitioned and sent, so their spans are placed
    at the end of the batch's ``partition`` span.
    """
    partition_end = tracer.end_of_child(process_span, "cluster.partition")
    for before, after in zip(previous, current):
        busy_ns = int((after["busy_seconds"] - before["busy_seconds"]) * 1e9)
        if busy_ns > 0:
            tracer.add_synthetic(
                f"cluster.shard{after['shard']}_busy", process_span,
                partition_end, partition_end + busy_ns,
                aux=after["requests"] - before["requests"],
            )


def cluster_reference(
    workload: Workload, inputs: Inputs
) -> tuple[np.ndarray, dict]:
    """In-process ``simulate`` over the same ``HashRing.partition`` split.

    The identity oracle for a cluster workload's hits, and — because the
    shard policies cannot be read from outside — the source of its
    eviction/admit/tracked-object counts.
    """
    ring = HashRing(workload.shards, seed=RING_SEED)
    hits = np.zeros(len(inputs.requests), dtype=bool)
    policies = []
    for bucket in ring.partition(inputs.requests):
        policy = _policy(
            workload, inputs, inputs.cache_size // workload.shards
        )
        result = simulate(
            Trace([request for _index, request in bucket], name="split"),
            policy,
        )
        hits[[index for index, _request in bucket]] = result.hits
        policies.append(policy)
    return hits, _policy_counters(policies)


def run_repeat(
    workload: Workload,
    inputs: Inputs,
    tracer: Tracer | None = None,
    stamped: bool = False,
) -> Repeat:
    """One repeat of ``workload`` from fresh policy state.

    ``stamped`` asks a ``simulate`` pass for per-decision times; the
    other shapes time their batches in every repeat.
    """
    if workload.shape == "sim":
        return _run_sim(workload, inputs, tracer, stamped)
    runner = _run_serve if workload.shape == "serve" else _run_cluster
    return runner(workload, inputs, tracer)

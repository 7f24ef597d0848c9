"""Extension experiment: req/s-vs-shards scaling of the cache cluster.

``bench_fig7_throughput`` sweeps predictor *threads* over a static
feature matrix; this benchmark extends the sweep to the full cluster
data plane — consistent-hash routing, shard worker processes, the
shared-memory model slab, and the columnar request wire — and gates two
properties at once:

* **near-linear scaling** — each shard worker accumulates
  ``process_time`` CPU seconds around its scoring loop only (attach,
  pickling, and pipe waits excluded), so ``requests / cpu_seconds`` is
  the service rate a dedicated core would sustain.  The *modeled
  aggregate* — the sum of per-shard rates, i.e. the one-core-per-shard
  deployment the paper's Figure-7 arithmetic assumes — must reach
  >= 1.7x the single-shard rate at 2 shards and >= 3x at 4.  Because the
  gate is CPU-time based it measures real serialization overhead (lock
  contention, per-request routing cost leaking into shards) and holds on
  a single-core CI host, where wall-clock scaling is physically
  impossible.  The *wall* rate is the table's first rate column, with
  the host's core count beside it; it times the request path only —
  every batch after the first, so spawn, publish, model attach and the
  shards' C-kernel build are set-up.
* **bit-identical scores** — every shard's running ``blake2b`` score
  digest must equal an in-process :class:`repro.core.DecisionEngine`
  run over the same trace split, and the shard's hit decisions must
  equal single-process ``simulate`` over that split.  Sharding changes
  where a request is served, never what the model says about it.

Results land in ``results/ext_cluster.txt`` (table) and
``results/ext_cluster.json`` (committed baseline; the CI artifact).
``CLUSTER_BENCH_REQUESTS`` scales the trace and ``CLUSTER_BENCH_SHARDS``
(comma-separated) the sweep for smoke runs.
"""

from __future__ import annotations

import os
from hashlib import blake2b
from time import perf_counter

import numpy as np
from common import RESULTS_DIR, cache_for, cdn_mix_trace, report, table

from repro.cluster import CacheCluster, HashRing
from repro.core import (
    DecisionEngine,
    LFOCache,
    LFOModel,
    LFOOnline,
    OptLabelConfig,
)
from repro.gbdt import GBDTParams
from repro.obs import write_json
from repro.sim import simulate
from repro.trace import Trace

N_REQUESTS = int(os.environ.get("CLUSTER_BENCH_REQUESTS", "20000"))
SHARD_COUNTS = tuple(
    int(s)
    for s in os.environ.get("CLUSTER_BENCH_SHARDS", "1,2,4").split(",")
)
RING_SEED = 42
BATCH = 2_048

#: Modeled-aggregate speedup floors vs 1 shard (ISSUE acceptance gates).
SCALING_GATES = {2: 1.7, 4: 3.0}

FAST_PARAMS = GBDTParams(num_iterations=10)


def _train_model(requests: list, cache_size: int) -> LFOModel:
    """One warm model for every sweep point, trained on a trace prefix."""
    prefix = requests[: min(len(requests), 8_000)]
    online = LFOOnline(
        cache_size,
        window=len(prefix) // 2,
        gbdt_params=FAST_PARAMS,
        label_config=OptLabelConfig(mode="greedy"),
    )
    for request in prefix:
        online.on_request(request)
    online.finish_training()
    assert online.model is not None, "degenerate training window"
    return online.model


def _run_cluster(requests, cache_size, n_shards, model):
    """One sweep point: route the trace, return rates + digests + hits."""
    cluster = CacheCluster(cache_size, n_shards, seed=RING_SEED)
    with cluster:
        cluster.publish(model)
        hits = cluster.process(requests[:BATCH])  # warm-up: set-up, untimed
        began = perf_counter()
        for start in range(BATCH, len(requests), BATCH):
            hits.extend(cluster.process(requests[start:start + BATCH]))
        wall = perf_counter() - began
        shards = cluster.shard_stats()
    cpu_rates = [s["requests"] / s["cpu_seconds"] for s in shards]
    return {
        "n_shards": n_shards,
        "requests": len(requests),
        "hits": sum(hits),
        "hit_list": hits,
        "wall_seconds": wall,
        "wall_rate": max(0, len(requests) - BATCH) / wall,
        "modeled_rate": sum(cpu_rates),
        "shard_cpu_seconds": [s["cpu_seconds"] for s in shards],
        "shard_requests": [s["requests"] for s in shards],
        "shard_digests": [s["score_digest"] for s in shards],
        "shard_generations": [s["generation"] for s in shards],
    }


def _reference_split(requests, cache_size, n_shards, model):
    """In-process per-shard replays: digests + hits, the identity oracle."""
    ring = HashRing(n_shards, seed=RING_SEED)
    digests, sim_hits = [], []
    for bucket in ring.partition(requests):
        split = Trace([request for _index, request in bucket], name="split")
        scores = np.empty(len(split))
        DecisionEngine(LFOCache(cache_size // n_shards, model=model)).run(
            split.times, split.objs, split.sizes, split.costs, scores
        )
        digests.append(blake2b(scores.tobytes(), digest_size=16).hexdigest())
        # Independent oracle: the stock simulator over the same split.
        result = simulate(split, LFOCache(cache_size // n_shards, model=model))
        sim_hits.append(
            {index: hit for (index, _r), hit in zip(bucket, result.hits)}
        )
    return digests, sim_hits


def run_cluster_sweep():
    trace = cdn_mix_trace(N_REQUESTS)
    requests = list(trace)
    cache_size = cache_for(trace)
    model = _train_model(requests, cache_size)
    points = []
    for n_shards in SHARD_COUNTS:
        point = _run_cluster(requests, cache_size, n_shards, model)
        point["ref_digests"], point["ref_hits"] = _reference_split(
            requests, cache_size, n_shards, model
        )
        points.append(point)
    return points


def test_cluster_scaling(benchmark):
    points = benchmark.pedantic(run_cluster_sweep, rounds=1, iterations=1)
    base = next(p for p in points if p["n_shards"] == 1)

    rows = []
    document = {
        "n_requests": N_REQUESTS,
        "ring_seed": RING_SEED,
        "batch": BATCH,
        "host_cores": os.cpu_count(),
        "points": [],
    }
    for point in points:
        speedup = point["modeled_rate"] / base["modeled_rate"]
        identical = point["shard_digests"] == point["ref_digests"]
        rows.append([
            point["n_shards"],
            int(point["wall_rate"]),
            os.cpu_count(),
            int(point["modeled_rate"]),
            round(speedup, 2),
            round(point["hits"] / point["requests"], 4),
            "yes" if identical else "NO",
        ])
        document["points"].append({
            "n_shards": point["n_shards"],
            "modeled_rate_rps": point["modeled_rate"],
            "modeled_speedup": speedup,
            "wall_rate_rps": point["wall_rate"],
            "wall_seconds": point["wall_seconds"],
            "shard_cpu_seconds": point["shard_cpu_seconds"],
            "shard_requests": point["shard_requests"],
            "hits": point["hits"],
            "score_digests": point["shard_digests"],
            "digests_bit_identical": identical,
        })

    RESULTS_DIR.mkdir(exist_ok=True)
    write_json(document, RESULTS_DIR / "ext_cluster.json")
    report(
        "ext_cluster",
        table(
            ["shards", "wall req/s", "host_cores", "modeled req/s",
             "speedup", "ohr", "bit-identical"],
            rows,
        )
        + "\nwall req/s is this host's wall clock over the request path "
        f"(every {BATCH}-request batch after the first); modeled req/s "
        "sums per-shard CPU-time service rates (one core per shard).\n"
        + "(gates: "
        + ", ".join(
            f">={gate}x @ {n} shards" for n, gate in SCALING_GATES.items()
        )
        + "; every shard digest bit-identical to in-process replay)",
    )

    for point in points:
        # Tentpole acceptance: shard scores bit-identical to the
        # single-process replay AND hit decisions identical to simulate
        # over the same split.
        assert point["shard_digests"] == point["ref_digests"], (
            point["n_shards"], point["shard_digests"], point["ref_digests"]
        )
        expected = {}
        for per_shard in point["ref_hits"]:
            expected.update(per_shard)
        assert point["hit_list"] == [
            expected[i] for i in range(point["requests"])
        ], point["n_shards"]
        assert all(g >= 1 for g in point["shard_generations"]), (
            "a shard never attached the published model"
        )
        gate = SCALING_GATES.get(point["n_shards"])
        if gate is not None:
            speedup = point["modeled_rate"] / base["modeled_rate"]
            assert speedup >= gate, (
                f"{point['n_shards']} shards reached only "
                f"{speedup:.2f}x modeled aggregate (gate {gate}x)"
            )

"""Extension experiment: req/s-vs-shards scaling of the cache cluster.

``bench_fig7_throughput`` sweeps predictor *threads* over a static
feature matrix; this benchmark extends the sweep to the full cluster
data plane — consistent-hash routing, shard worker processes, the
shared-memory model slab, and the columnar request wire — and gates two
properties at once:

* **scaling that is measured** — the *wall* request rate (this host's
  wall clock over the request path only: every batch after the first,
  so spawn, publish, model attach and the shards' C-kernel build are
  set-up; fastest of ``WALL_REPEATS`` fresh clusters per shard count)
  must not fall as shards are added, for every shard count the host has
  cores for (``host_cores`` is printed beside it; beyond that,
  shards share cores and the rate is reported, not gated).  Per-shard
  ``process_time`` CPU seconds and request counts are recorded in the
  JSON as supporting evidence, never as a rate of their own.
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
from repro.core import DecisionEngine, LFOCache, LFOModel, LFOOnline
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
#: Fresh clusters per sweep point; the fastest wall is the point's rate.
#: The timed region is a few dozen ms at smoke scale and the host is
#: shared — other tenants only ever add time, so the minimum estimates
#: the rate and a single run gates on who else was running.
WALL_REPEATS = 5

FAST_PARAMS = GBDTParams(num_iterations=10)


def _train_model(requests: list, cache_size: int) -> LFOModel:
    """One warm model for every sweep point, trained on a trace prefix."""
    prefix = requests[: min(len(requests), 8_000)]
    online = LFOOnline(
        cache_size,
        window=len(prefix) // 2,
        gbdt_params=FAST_PARAMS,
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
    return {
        "n_shards": n_shards,
        "requests": len(requests),
        "hits": sum(hits),
        "hit_list": hits,
        "wall_seconds": wall,
        "wall_rate": max(0, len(requests) - BATCH) / wall,
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
        runs = [
            _run_cluster(requests, cache_size, n_shards, model)
            for _ in range(WALL_REPEATS)
        ]
        point = min(runs, key=lambda run: run["wall_seconds"])
        for run in runs:  # the identity gates below then cover every run
            assert run["shard_digests"] == point["shard_digests"], n_shards
            assert run["hit_list"] == point["hit_list"], n_shards
        point["ref_digests"], point["ref_hits"] = _reference_split(
            requests, cache_size, n_shards, model
        )
        points.append(point)
    return points


def test_cluster_scaling(benchmark):
    points = benchmark.pedantic(run_cluster_sweep, rounds=1, iterations=1)
    points.sort(key=lambda p: p["n_shards"])
    host_cores = os.cpu_count() or 1

    rows = []
    document = {
        "n_requests": N_REQUESTS,
        "ring_seed": RING_SEED,
        "batch": BATCH,
        "host_cores": host_cores,
        "points": [],
    }
    for point in points:
        identical = point["shard_digests"] == point["ref_digests"]
        rows.append([
            point["n_shards"],
            int(point["wall_rate"]),
            host_cores,
            round(point["hits"] / point["requests"], 4),
            "yes" if identical else "NO",
        ])
        document["points"].append({
            "n_shards": point["n_shards"],
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
            ["shards", "wall req/s", "host_cores", "ohr", "bit-identical"],
            rows,
        )
        + "\nwall req/s is this host's wall clock over the request path "
        f"(every {BATCH}-request batch after the first).\n"
        "(gates: wall req/s non-decreasing in shards up to host_cores; "
        "every shard digest bit-identical to in-process replay)",
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
    for fewer, more in zip(points, points[1:]):
        if more["n_shards"] <= host_cores:
            assert more["wall_rate"] >= fewer["wall_rate"], (
                f"{more['n_shards']} shards served {more['wall_rate']:.0f} "
                f"req/s, fewer than {fewer['n_shards']} shards' "
                f"{fewer['wall_rate']:.0f}, on {host_cores} cores"
            )

"""Extension benchmark: sampled-candidate eviction cost and BHR ablation.

The eviction engine's claim is *minimal overhead*: picking a victim must
cost O(K) model evaluations regardless of how many objects are resident,
or eviction dominates the request path exactly where the paper's latency
budget is tightest (a 256GB CDN cache holds millions of objects).  Two
experiments back the claim:

* **cost**: time one sampled eviction plan at ``EVICT_BENCH_RESIDENTS``
  residents (default 10^6) and at 1% of that.  Machine-invariant gates:
  the large/small cost ratio stays under ``SCALING_CEILING`` (the plan
  does not scale with the resident set), and the speedup over a full
  resident rescore retains at least ``SPEEDUP_RETENTION`` of the
  committed baseline (``results/ext_evict.json``), measured at the same
  resident count.  The baseline JSON is rewritten on every run so a real
  improvement only needs to be committed to become the new floor.
* **ablation**: LFO-Online with sampled eviction (K in 16 and 64) must
  not trail full likelihood eviction by more than ``BHR_TOLERANCE``
  byte hit ratio on the Figure-6 workloads — sampling may change
  *which* of the near-worst objects goes first, but not cost hit ratio.
  (In practice it lands *above* full eviction: candidates are scored
  fresh at eviction time, while the pure heap rank is lazily stale.)
"""

from __future__ import annotations

import json
import os
from time import perf_counter

import numpy as np
from common import (
    RESULTS_DIR,
    cache_for,
    cdn_mix_trace,
    report,
    table,
    zipf_locality_trace,
)

from repro.core import (
    LFOCache,
    LFOModel,
    LFOOnline,
    OptLabelConfig,
    SampledEvictionConfig,
)
from repro.features import Dataset, feature_names
from repro.gbdt import GBDTParams
from repro.obs import write_json
from repro.sim import simulate
from repro.trace import Request

#: Smoke knobs for CI: resident-set scale, ablation trace length, repeats.
RESIDENTS = int(os.environ.get("EVICT_BENCH_RESIDENTS", "1000000"))
ABLATION_REQUESTS = int(os.environ.get("EVICT_BENCH_REQUESTS", "12000"))
ROUNDS = int(os.environ.get("EVICT_BENCH_ROUNDS", "3"))

SPEEDUP_RETENTION = 0.85
#: Plan cost may wobble with cache effects but must not scale with the
#: resident set: 100x the residents may cost at most this factor more.
SCALING_CEILING = 2.5
BHR_TOLERANCE = 0.01  # one BHR point
K_VALUES = (16, 64)
PLAN_K = 64
N_GAPS = 4  # small feature vector keeps the 10^6-resident setup light

BASELINE_PATH = RESULTS_DIR / "ext_evict.json"


def _toy_model() -> LFOModel:
    """A quickly trained size-rule model (admit-all cutoff)."""
    rng = np.random.default_rng(0)
    n = 2000
    names = feature_names(N_GAPS)
    X = np.zeros((n, len(names)))
    X[:, 0] = rng.integers(1, 100, size=n)
    X[:, 1] = X[:, 0]
    X[:, 2] = rng.integers(0, 1000, size=n)
    X[:, 3:] = rng.exponential(10, size=(n, N_GAPS))
    y = (X[:, 0] < 50).astype(float)
    return LFOModel.train(
        Dataset(X, y, names),
        params=GBDTParams(num_iterations=10),
        cutoff=0.0,
    )


def _populated_cache(model: LFOModel, n_residents: int) -> LFOCache:
    """An LFO cache holding ``n_residents`` objects, heap-ranked.

    Residents are installed directly (the tracker sees them as unknown
    objects and extracts missing-gap rows, which is exactly the cold end
    of the production distribution) — driving 10^6 admissions through the
    full request path would time the admission path, not eviction.
    """
    policy = LFOCache(
        cache_size=n_residents * 16,
        model=model,
        n_gaps=N_GAPS,
        eviction="sampled",
        sampled=SampledEvictionConfig(k=PLAN_K, seed=0),
    )
    for obj in range(n_residents):
        policy._insert(Request(float(obj), obj, 10))
        policy._ranked.push(obj, 0.5)
    policy._now = float(n_residents)
    return policy


def _best_ns_per_call(fn, calls: int) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        started = perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, perf_counter() - started)
    return best * 1e9 / calls


def run_eviction_cost():
    model = _toy_model()
    small_residents = max(1000, RESIDENTS // 100)

    large = _populated_cache(model, RESIDENTS)
    small = _populated_cache(model, small_residents)

    plan = large._sampled_plan()
    assert len(plan) <= PLAN_K + 1  # the K+1 candidate ceiling

    timings = {
        "sampled_plan_large_ns": _best_ns_per_call(
            large._sampled_plan, calls=50
        ),
        "sampled_plan_small_ns": _best_ns_per_call(
            small._sampled_plan, calls=50
        ),
        "full_rescore_small_ns": _best_ns_per_call(
            small._rescore_all, calls=2
        ),
    }
    timings["scaling_ratio_100x"] = (
        timings["sampled_plan_large_ns"] / timings["sampled_plan_small_ns"]
    )
    timings["sampled_vs_full_speedup"] = (
        timings["full_rescore_small_ns"] / timings["sampled_plan_small_ns"]
    )
    return timings


def test_eviction_cost(benchmark):
    timings = benchmark.pedantic(run_eviction_cost, rounds=1, iterations=1)

    baseline = None
    if BASELINE_PATH.exists():
        with open(BASELINE_PATH) as handle:
            baseline = json.load(handle)

    rows = [[stage, value] for stage, value in timings.items()]
    report(
        "ext_evict",
        table(["stage", "value"], rows)
        + f"\nresidents: {RESIDENTS} (best of {ROUNDS} rounds)",
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    write_json(
        {"residents": RESIDENTS, "rounds": ROUNDS, **timings}, BASELINE_PATH
    )

    # Plan cost must not scale with the resident set (100x the objects).
    assert timings["scaling_ratio_100x"] < SCALING_CEILING, timings
    # Sampling must beat rescoring everything, even at 1% scale.
    assert timings["sampled_vs_full_speedup"] > 1.5, timings
    if baseline is not None and baseline.get("residents") == RESIDENTS:
        floor = SPEEDUP_RETENTION * baseline["sampled_vs_full_speedup"]
        assert timings["sampled_vs_full_speedup"] >= floor, (
            timings["sampled_vs_full_speedup"],
            floor,
        )


def _online(cache_size: int, eviction: str, k: int = 64) -> LFOOnline:
    return LFOOnline(
        cache_size,
        window=4_000,
        label_config=OptLabelConfig(mode="segmented", segment_length=1_000),
        eviction=eviction,
        sampled=SampledEvictionConfig(k=k, seed=0),
    )


def run_ablation():
    results = {}
    for name, trace in (
        ("cdn_mix", cdn_mix_trace(ABLATION_REQUESTS)),
        ("zipf_locality", zipf_locality_trace(ABLATION_REQUESTS)),
    ):
        cache_size = cache_for(trace, 12)
        rows = {
            "full": simulate(
                trace, _online(cache_size, "likelihood"),
                warmup_fraction=1 / 3,
            ).bhr
        }
        for k in K_VALUES:
            rows[f"sampled_k{k}"] = simulate(
                trace, _online(cache_size, "sampled", k=k),
                warmup_fraction=1 / 3,
            ).bhr
        results[name] = rows
    return results


def test_bhr_ablation(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = []
    for name, bhrs in results.items():
        for variant, bhr in bhrs.items():
            rows.append([name, variant, bhr, bhr - bhrs["full"]])
    report(
        "ext_evict_ablation",
        table(["trace", "eviction", "bhr", "delta_vs_full"], rows)
        + f"\nrequests per trace: {ABLATION_REQUESTS}",
    )

    for name, bhrs in results.items():
        for k in K_VALUES:
            shortfall = bhrs["full"] - bhrs[f"sampled_k{k}"]
            assert shortfall <= BHR_TOLERANCE, (name, k, bhrs)

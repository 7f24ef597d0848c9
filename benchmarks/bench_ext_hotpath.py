"""Extension benchmark: per-request latency budget of the scoring hot path.

The paper's deployability argument is a latency budget: admission must
cost microseconds, not milliseconds, or the predictor throttles the CDN
it is supposed to speed up.  This benchmark times each stage of the
request path in isolation — feature extraction (scalar per ``Request``,
one columnar probe over the same rows, and a 256-row lookahead window in
which three rows in four repeat an earlier object of the window — the
decision engine's shape), the scalar ``update``, single-row prediction,
and batch prediction, plus the reference (uncompiled) predictor for
scale — and reports nanoseconds per request.

Three regression gates, all machine-invariant ratios rather than
absolute times (CI machines vary wildly):

* the compiled batch path must beat the reference tree-walk by at least
  ``0.85 ×`` the speedup recorded in the committed baseline
  (``results/ext_hotpath.json``), when the baseline was measured on the
  same backend;
* one row must cost at most ``1 / 0.85 ×`` the baseline's multiple of a
  batched row (``predict_single_ns / predict_batch_ns``), on the same
  condition: the single-row call's fixed cost and its tree lanes are
  what the scalar decision pays per request;
* columnar feature extraction must amortise to cheaper than scalar
  extraction per row.

The JSON baseline is rewritten on every run so a real improvement only
needs to be committed to become the new floor.
"""

from __future__ import annotations

import copy
import json
import os
from time import perf_counter

import numpy as np
from common import RESULTS_DIR, report, table

from repro.features import FeatureTracker
from repro.obs import write_json

#: Smoke knob for CI: scales the repeat counts.
ROUNDS = int(os.environ.get("HOTPATH_BENCH_ROUNDS", "3"))
SPEEDUP_RETENTION = 0.85

BASELINE_PATH = RESULTS_DIR / "ext_hotpath.json"


def _best_ns_per(fn, count: int) -> float:
    """Best-of-ROUNDS wall-clock for ``fn``, in ns per inner item."""
    best = float("inf")
    for _ in range(ROUNDS):
        started = perf_counter()
        fn()
        best = min(best, perf_counter() - started)
    return best * 1e9 / count


def _single_vs_batch(timings: dict) -> float:
    """One row's scoring cost in batched rows."""
    return timings["predict_single_ns"] / timings["predict_batch_ns"]


def run_hotpath(acc_report, acc_windows, acc_trace, acc_cache):
    clf = acc_report.model.classifier
    predictor = clf.compiled()

    # A tracker warmed exactly as the simulator would warm it.
    tracker = FeatureTracker(n_gaps=50)
    warm, probe = acc_trace.requests[:8_000], acc_trace.requests[8_000:8_512]
    for request in warm:
        tracker.update(request.obj, request.time, request.cost)
    span = slice(8_000, 8_512)
    objs = acc_trace.objs[span].tolist()
    times, sizes, costs = (
        acc_trace.times[span], acc_trace.sizes[span], acc_trace.costs[span]
    )
    # One lookahead window: 64 objects, each requested four times.
    window = np.tile(np.arange(64), 4)
    window_objs = [objs[i] for i in window]
    window_columns = (times[:256], sizes[window], costs[window])

    X = np.ascontiguousarray(acc_windows.test.X[:4_096])
    rows = [np.ascontiguousarray(x) for x in X[:256]]

    def extract_scalar():
        for request in probe:
            tracker.features(request, acc_cache)

    def extract_batch():
        tracker.features_batch(objs, times, sizes, costs, acc_cache)

    def extract_window():
        tracker.features_batch(window_objs, *window_columns, acc_cache)

    def update():
        scratch = copy.deepcopy(tracker)
        began = perf_counter()
        for obj, time, cost in zip(objs, times.tolist(), costs.tolist()):
            scratch.update(obj, time, cost)
        return perf_counter() - began

    def predict_single():
        for row in rows:
            predictor.predict_proba_single(row)

    def predict_batch():
        predictor.predict_proba(X)

    def predict_reference():
        clf.predict_proba(X)

    timings = {
        "extract_scalar_ns": _best_ns_per(extract_scalar, len(probe)),
        "extract_batch_ns": _best_ns_per(extract_batch, len(probe)),
        "extract_window_ns": _best_ns_per(extract_window, len(window)),
        "update_ns": min(update() for _ in range(ROUNDS)) * 1e9 / len(objs),
        "predict_single_ns": _best_ns_per(predict_single, len(rows)),
        "predict_batch_ns": _best_ns_per(predict_batch, len(X)),
        "predict_reference_ns": _best_ns_per(predict_reference, len(X)),
    }
    timings["compiled_vs_reference_speedup"] = (
        timings["predict_reference_ns"] / timings["predict_batch_ns"]
    )
    timings["single_vs_batch_ratio"] = _single_vs_batch(timings)
    return predictor.backend, timings


def test_hotpath(benchmark, acc_report, acc_windows, acc_trace, acc_cache):
    backend, timings = benchmark.pedantic(
        run_hotpath,
        args=(acc_report, acc_windows, acc_trace, acc_cache),
        rounds=1,
        iterations=1,
    )

    baseline = None
    if BASELINE_PATH.exists():
        with open(BASELINE_PATH) as handle:
            baseline = json.load(handle)

    rows = [[stage, ns] for stage, ns in timings.items()]
    report(
        "ext_hotpath",
        table(["stage", "value"], rows)
        + f"\nbackend: {backend} (best of {ROUNDS} rounds)",
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    write_json(
        {"backend": backend, "rounds": ROUNDS, **timings}, BASELINE_PATH
    )

    # Batch extraction must amortise below the scalar path.
    assert timings["extract_batch_ns"] < timings["extract_scalar_ns"]
    # Compiled batch scoring must stay well ahead of the reference walk.
    assert timings["compiled_vs_reference_speedup"] > 2.0
    if baseline is not None and baseline.get("backend") == backend:
        floor = (
            SPEEDUP_RETENTION * baseline["compiled_vs_reference_speedup"]
        )
        assert timings["compiled_vs_reference_speedup"] >= floor, (
            timings["compiled_vs_reference_speedup"],
            floor,
        )
        ceiling = _single_vs_batch(baseline) / SPEEDUP_RETENTION
        assert timings["single_vs_batch_ratio"] <= ceiling, (
            timings["single_vs_batch_ratio"],
            ceiling,
        )

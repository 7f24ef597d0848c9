"""Extension experiment: training/serving interference (Fig. 7 remark).

The paper: "a production implementation would need to carefully optimize
priorities such that training tasks do not interfere with the request
traffic."  Two measurements:

1. The queueing model of :mod:`repro.sim.server`: periodic training jobs
   either share the FIFO queue with requests or run strictly backgrounded,
   across a load sweep.  Expected shape: under FIFO, request p99 latency
   explodes once a training job can starve the workers; under strict
   priorities the p99 stays at the no-training baseline while training
   completion is only modestly delayed.

2. The *real* pipeline: wall-clock per-request latency of ``LFOOnline``
   with inline window retraining (label solve + GBDT fit on the request
   path — the seed behaviour) versus ``background=True`` (snapshot +
   submit only).  Expected shape: inline stalls every window boundary by
   the full training time; in background mode the boundary request costs
   about the same as any other request.
"""

from __future__ import annotations

import time

import numpy as np
from common import cache_for, cdn_mix_trace, report, table

from repro.core import LFOOnline, OptLabelConfig
from repro.gbdt import GBDTParams
from repro.sim import ServerConfig, simulate_server

LOADS = [0.4, 0.6, 0.8]
CAPACITY = 2_000.0  # 2 workers x 1 ms predictions

STALL_WINDOW = 3_000
STALL_REQUESTS = 9_000


def run_sweep():
    rows = []
    stats = {}
    for load in LOADS:
        common = dict(
            arrival_rate=load * CAPACITY,
            n_workers=2,
            prediction_time=1e-3,
            training_time=1.0,
            window=5_000,
            n_requests=30_000,
        )
        baseline = simulate_server(
            ServerConfig(discipline="fifo", window=0, **{
                k: v for k, v in common.items() if k != "window"
            })
        )
        fifo = simulate_server(ServerConfig(discipline="fifo", **common))
        prio = simulate_server(ServerConfig(discipline="priority", **common))
        rows.append([
            f"{load:.0%}",
            baseline.p99_latency * 1e3,
            fifo.p99_latency * 1e3,
            prio.p99_latency * 1e3,
            prio.max_training_delay,
        ])
        stats[load] = (baseline, fifo, prio)
    return rows, stats


def test_training_interference(benchmark):
    rows, stats = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report(
        "ext_training_interference",
        table(
            [
                "load", "p99 ms (no train)", "p99 ms (fifo)",
                "p99 ms (priority)", "train delay s",
            ],
            rows,
        ),
    )
    for load, (baseline, fifo, prio) in stats.items():
        # Priorities keep the request tail at the no-training baseline.
        assert prio.p99_latency <= baseline.p99_latency * 1.05 + 1e-4
        # Training still completes in bounded time.
        assert prio.max_training_delay < 120.0
    # At high load, FIFO-shared training visibly hurts the tail.
    _, fifo_hi, prio_hi = stats[0.8]
    assert fifo_hi.p99_latency > 5 * prio_hi.p99_latency


def run_request_path_stall():
    trace = cdn_mix_trace(n_requests=STALL_REQUESTS, seed=11)
    cache = cache_for(trace, 10)
    stats = {}
    for mode in ("inline", "background"):
        policy = LFOOnline(
            cache,
            window=STALL_WINDOW,
            gbdt_params=GBDTParams(num_iterations=15),
            n_gaps=10,
            label_config=OptLabelConfig(mode="segmented", segment_length=750),
            background=(mode == "background"),
        )
        latencies = np.empty(len(trace))
        for i, request in enumerate(trace):
            t0 = time.perf_counter()
            policy.on_request(request)
            latencies[i] = time.perf_counter() - t0
        policy.finish_training()
        policy.close()
        boundary = latencies[
            np.arange(len(trace)) % STALL_WINDOW == STALL_WINDOW - 1
        ]
        stats[mode] = (latencies, boundary, policy.trainer.training_stats)
    return stats


def test_request_path_stall(benchmark):
    """Background retraining removes the window-boundary stall from the
    real (not modelled) request path."""
    stats = benchmark.pedantic(run_request_path_stall, rounds=1, iterations=1)
    rows = []
    for mode, (lat, boundary, train) in stats.items():
        rows.append([
            mode,
            float(np.median(lat) * 1e6),
            float(np.percentile(lat, 99) * 1e6),
            float(boundary.max() * 1e3),
            train["n_retrains"],
            train["n_skipped_retrains"],
            train["last_training_seconds"],
        ])
    report(
        "ext_training_interference_stall",
        table(
            [
                "mode", "median us", "p99 us", "boundary max ms",
                "retrains", "skipped", "last train s",
            ],
            rows,
        ),
    )
    inline_lat, inline_boundary, _ = stats["inline"]
    bg_lat, bg_boundary, bg_train = stats["background"]
    # Inline retraining stalls the boundary request by orders of magnitude.
    assert inline_boundary.max() > 20 * np.median(inline_lat)
    # Backgrounded, the boundary request is an ordinary request: within
    # ~2x the median (plus scheduler-noise slack on loaded machines).
    assert bg_boundary.max() <= max(2 * np.median(bg_lat), 0.05)
    # And vastly below the inline stall.
    assert bg_boundary.max() < inline_boundary.max() / 10
    # Training really happened off-path (or was skipped, never inlined).
    assert bg_train["n_retrains"] + bg_train["n_skipped_retrains"] >= 2

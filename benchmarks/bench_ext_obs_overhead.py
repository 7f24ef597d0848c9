"""Extension experiment: request-path cost of the observability layer.

The paper's "lightweight" claim makes instrumentation a deployment
question: metrics are only admissible if collecting them does not disturb
the request path they measure.  ``repro.obs`` is designed for that —
counters fold in after the simulation loop from vectorised hit flags,
spans wrap *stages* (never individual requests), and the per-request
feature-extraction histogram is the single instrument on the hot path.

This benchmark runs end-to-end ``simulate`` three ways per policy —
under the default ``NullRegistry`` (observability off), under a live
``MetricsRegistry``, and under a ``WindowedRegistry`` with the full
streaming stack attached (telemetry windows scaled to the trace and
``SloEngine`` on the default spec, drift detectors included) —
and gates on the registry's *self-accounted* request-path bill: the
``sim.metrics_fold`` span divided by run wall time must stay below 3% in
both enabled modes.  ``simulate`` times no decisions (the per-decision
latency budget is the serving path's, ``serve.decision_latency_seconds``),
so every fold and window roll is the whole bill.  Direct accounting
is deliberate: subtracting a null-mode wall time from an enabled-mode
wall time needs both numbers stable to well under the 3% budget, and on
shared CI hosts the run-to-run spread of identical code exceeds that by
an order of magnitude.  The null-mode column remains in the table as
throughput context.  Two policies bracket the cost:

* **LRU** — the cheapest per-request work, so the worst case for relative
  simulator-loop overhead;
* **LFO-online** (serial) — exercises every instrumented stage: tracker
  latency, the window-close -> label-solve -> gbdt-fit -> model-install
  span chain, and the per-iteration GBDT histogram.

Each mode is timed ``ROUNDS`` times interleaved (fresh policy per
round, registry reused so its spans accumulate the bill for exactly the
timed runs).  The enabled LFO registry's full snapshot — summed over
its rounds — is written to ``results/ext_obs_overhead.json``, the
artifact CI uploads, alongside the usual text table.
"""

from __future__ import annotations

import os
from time import perf_counter

from common import RESULTS_DIR, cdn_mix_trace, report, stage_table, table

from repro.cache import LRUCache
from repro.core import LFOOnline, OptLabelConfig
from repro.gbdt import GBDTParams
from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    SloEngine,
    SloSpec,
    WindowedRegistry,
    use_registry,
    write_json,
)
from repro.sim import simulate

#: Smoke knobs for CI: OBS_BENCH_REQUESTS scales both traces, OBS_BENCH_ROUNDS
#: the repeat count.
N_REQUESTS = int(os.environ.get("OBS_BENCH_REQUESTS", "20000"))
N_LFO_REQUESTS = max(2_000, N_REQUESTS // 2)
ROUNDS = int(os.environ.get("OBS_BENCH_ROUNDS", "3"))
OVERHEAD_LIMIT = 0.03
#: Streaming-telemetry window for the "windowed" mode.  Scaled with the
#: trace so smoke runs still roll complete windows; window work is
#: O(trace), so the per-window length sets how often the cold-cache
#: fold/roll price is paid, not how much total work is done.
TELEMETRY_WINDOW = max(2_000, N_REQUESTS // 2)

FAST_PARAMS = GBDTParams(num_iterations=10)


def _policies(trace, lfo_trace):
    cache = trace.footprint() // 10
    lfo_cache = lfo_trace.footprint() // 10
    return {
        "LRU": (trace, lambda: LRUCache(cache)),
        "LFO-online": (
            lfo_trace,
            lambda: LFOOnline(
                lfo_cache,
                window=max(1_000, len(lfo_trace) // 3),
                gbdt_params=FAST_PARAMS,
                n_gaps=10,
                label_config=OptLabelConfig(
                    mode="segmented", segment_length=1_000
                ),
            ),
        ),
    }


def _run_rounds(trace, factory, registries: dict, rounds: int) -> dict:
    """Per registry mode: (best single-run wall, summed wall), rounds
    interleaved.

    Interleaving (null, enabled, windowed, null, enabled, ...) matters on
    a shared host: back-to-back blocks would fold any slow load drift
    entirely into one mode's numbers, while interleaved rounds expose
    every mode to the same noise.  The best-of is reported as throughput
    context; the summed wall is the denominator for the self-accounted
    overhead gate (see :func:`_accounted_overhead`).
    """
    times = {name: (float("inf"), 0.0) for name in registries}
    for _ in range(rounds):
        for name, registry in registries.items():
            policy = factory()
            with use_registry(registry):
                started = perf_counter()
                simulate(trace, policy)
                elapsed = perf_counter() - started
            best, total = times[name]
            times[name] = (min(best, elapsed), total + elapsed)
    return times


def _accounted_overhead(registry, total_wall: float) -> float:
    """Telemetry seconds actually spent on the request path, as a
    fraction of the mode's total (summed) run time.

    The registry bills its own request-path work: every mid-run fold and
    window roll runs inside the ``sim.metrics_fold`` span.  Numerator
    and denominator come from the *same* runs, so host frequency drift
    and interference cancel — unlike the
    difference-of-totals estimator, which on a busy shared host shows a
    per-round spread an order of magnitude above the 3% budget it is
    supposed to resolve.  What this direct bill excludes (folder setup,
    the end-of-run snapshot, diffuse cache effects on the bulk loop) is
    bounded well under half a percent: setup and export are O(10us)
    one-offs, and the bulk loop's per-request time under telemetry
    matches the null path to within measurement noise.
    """
    fold = registry.to_dict()["spans"].get("sim.metrics_fold", {})
    return fold.get("total_seconds", 0.0) / total_wall


def _windowed_registry() -> WindowedRegistry:
    """The full streaming stack: windows + the SLO engine (drift
    detectors included)."""
    registry = WindowedRegistry(every_requests=TELEMETRY_WINDOW)
    SloEngine(SloSpec.default()).attach(registry)
    return registry


def run_obs_overhead():
    trace = cdn_mix_trace(N_REQUESTS)
    lfo_trace = cdn_mix_trace(N_LFO_REQUESTS, seed=43)
    rows = []
    overheads = {}
    snapshot = None
    for name, (bench_trace, factory) in _policies(trace, lfo_trace).items():
        live_registry = MetricsRegistry()
        windowed_registry = _windowed_registry()
        # A full LRU pass is ~20ms, so extra rounds are nearly free there
        # — and LRU is the stress case: the cheapest per-request work, so
        # the telemetry bill is largest *relative* to the run.
        rounds = ROUNDS if name != "LRU" else max(3 * ROUNDS, 9)
        times = _run_rounds(
            bench_trace,
            factory,
            {
                "null": NullRegistry(),
                "enabled": live_registry,
                "windowed": windowed_registry,
            },
            rounds,
        )
        t_null, _ = times["null"]
        t_live, live_total = times["enabled"]
        t_windowed, win_total = times["windowed"]
        # The registries were reused across rounds, so their spans hold
        # the summed telemetry bill for exactly the runs behind *_total.
        overheads[f"{name}/enabled"] = _accounted_overhead(
            live_registry, live_total
        )
        overheads[f"{name}/windowed"] = _accounted_overhead(
            windowed_registry, win_total
        )
        n = len(bench_trace)
        rows.append(
            [
                name, n, n / t_null, n / t_live, n / t_windowed,
                100.0 * overheads[f"{name}/enabled"],
                100.0 * overheads[f"{name}/windowed"],
            ]
        )
        snapshot = live_registry  # the LFO registry (last) goes to JSON
    return rows, overheads, snapshot


def test_obs_overhead(benchmark):
    rows, overheads, registry = benchmark.pedantic(
        run_obs_overhead, rounds=1, iterations=1
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    write_json(registry.to_dict(), RESULTS_DIR / "ext_obs_overhead.json")
    report(
        "ext_obs_overhead",
        table(
            [
                "policy", "requests", "null_req_s", "enabled_req_s",
                "windowed_req_s", "ovh_pct", "win_ovh_pct",
            ],
            rows,
        )
        + f"\n(req/s = best of {ROUNDS} interleaved rounds per mode, 3x "
        "for LRU; ovh_pct = self-accounted telemetry seconds "
        "(the sim.metrics_fold span: every fold and window roll) "
        f"over total run wall; limit {100 * OVERHEAD_LIMIT:.0f}%; "
        f"windowed = telemetry ring every {TELEMETRY_WINDOW} requests + "
        "SLO engine with its drift detectors)\n\n"
        "per-stage breakdown of the instrumented LFO run:\n"
        + stage_table(registry),
    )
    # The deployability gate: observability must stay in the noise floor.
    for name, overhead in overheads.items():
        assert overhead < OVERHEAD_LIMIT, (name, overhead)

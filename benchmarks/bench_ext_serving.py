"""Extension experiment: the serving harness under the fault matrix.

``bench_ext_fault_matrix`` proves the *simulated* online loop degrades
gracefully; this benchmark makes the same argument for the *serving*
shape — the asyncio loop behind ``lfo serve``: bounded ingestion queue,
speculative batched scoring, background retraining with warm model
handoff, and live SLO evaluation over telemetry windows.  Each fault
scenario from the matrix replays through :class:`repro.serve.ServingLoop`
with the full observability plane attached.

The headline gates:

* **zero dropped requests in every scenario** — backpressure and the
  shutdown drain are structural, and no injected fault may turn into
  silent loss;
* **decision-latency SLOs hold under every fault** — training crashes,
  hangs, and injected solve latency must never leak onto the scoring
  path (the inline executor runs training synchronously at window
  boundaries, *between* speculation windows, so even a 20 ms solve stall
  leaves per-decision latency untouched);
* **warm handoff raises no score-drift false alarm** — the
  ``score_drift`` objective's PSI burn-in absorbs each model install;
* **no single fault moves serving BHR more than 5 points** off the
  fault-free serving baseline, and each scenario's degradation path
  demonstrably engaged.

Results land in ``results/ext_serving.txt`` (table) and
``results/ext_serving.json`` (committed baseline; the CI artifact).
``SERVING_BENCH_REQUESTS`` scales the trace for smoke runs.
"""

from __future__ import annotations

import asyncio
import os

from common import RESULTS_DIR, cache_for, cdn_mix_trace, report, table

from repro.core import LFOOnline, OptLabelConfig
from repro.gbdt import GBDTParams
from repro.obs import (
    MetricsRegistry,
    SloEngine,
    SloSpec,
    WindowedRegistry,
    use_registry,
    write_json,
)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    SimulatedTrainerExecutor,
    use_fault_plan,
)
from repro.serve import ServingLoop, TraceReplayDriver
from repro.trace import read_text_trace, write_text_trace

N_REQUESTS = int(os.environ.get("SERVING_BENCH_REQUESTS", "12000"))
WINDOW = 2_000
SEGMENT = 500
#: Half a training window, so a settled window sits between two installs
#: and the ``score_drift`` gate judges some windows.
TELEMETRY_WINDOW = 500
BHR_TOLERANCE = 0.05  # max |BHR - baseline| under any single fault

#: The latency objectives that must hold under every fault (BHR and
#: staleness verdicts are recorded in the JSON but gated only via the
#: BHR-delta tolerance — small smoke traces sit near the BHR floor).
LATENCY_OBJECTIVES = (
    "decision_latency_p50",
    "decision_latency_p99",
    "decision_latency_p999",
)

FAST_PARAMS = GBDTParams(num_iterations=10)


def _make_lfo(cache_size: int, **kwargs) -> LFOOnline:
    """Scenario-standard policy: background mode on the inline executor."""
    defaults = dict(
        window=WINDOW,
        gbdt_params=FAST_PARAMS,
        n_gaps=10,
        label_config=OptLabelConfig(mode="segmented", segment_length=SEGMENT),
        background=True,
        executor=SimulatedTrainerExecutor(),
        staleness_limit=2,
        retry_backoff=1,
    )
    defaults.update(kwargs)
    return LFOOnline(cache_size, **defaults)


def _serve(trace, lfo, plan):
    """One serving run under ``plan`` with the observability plane live."""
    registry = WindowedRegistry(
        every_requests=TELEMETRY_WINDOW, request_counter="serve.requests"
    )
    engine = SloEngine(SloSpec.default()).attach(registry)
    executor = lfo.trainer.executor
    with use_registry(registry), use_fault_plan(plan):
        loop = ServingLoop(lfo, TraceReplayDriver(trace))
        serve_report = asyncio.run(loop.run())
        executor.release_hung()  # end of drill: un-park hung futures
        lfo.finish_training(timeout=0)
    executor.shutdown(cancel_futures=True)
    counters = registry.to_dict()["counters"]
    return {
        "report": serve_report,
        "counters": counters,
        "slo": engine.verdict(),
    }


def _corrupted_trace(trace, plan, tmp_dir):
    """Round-trip the trace through text with corrupt-line injection on."""
    path = os.path.join(tmp_dir, "serving_trace.txt")
    write_text_trace(trace, path)
    registry = MetricsRegistry()
    with use_registry(registry), use_fault_plan(plan):
        reread = read_text_trace(path, tolerant=True)
    skipped = registry.to_dict()["counters"].get(
        "resilience.trace_lines_skipped", 0
    )
    return reread, skipped


def run_serving_matrix(tmp_dir: str):
    trace = list(cdn_mix_trace(N_REQUESTS))
    cache = cache_for(cdn_mix_trace(N_REQUESTS))
    scenarios: dict[str, dict] = {}

    # -- baseline: fault-free serving ----------------------------------------
    data = _serve(trace, _make_lfo(cache), None)
    baseline_bhr = data["report"].bhr
    data["engaged"] = data["report"].model_handoffs >= 1
    scenarios["baseline"] = data

    # -- trainer crash: second training attempt raises -----------------------
    plan = FaultPlan([
        FaultSpec(site="online.train_window", kind="crash", at=(1,))
    ])
    data = _serve(trace, _make_lfo(cache), plan)
    data["engaged"] = (
        data["counters"].get("online.failed_retrains", 0) >= 1
        and data["counters"].get("resilience.backoff_skips", 0) >= 1
    )
    scenarios["trainer_crash"] = data

    # -- trainer hang: second submission parks; watchdog cancels -------------
    plan = FaultPlan([
        FaultSpec(site="trainer.submit", kind="hang", at=(1,))
    ])
    data = _serve(trace, _make_lfo(cache, train_deadline=800), plan)
    data["engaged"] = (
        data["counters"].get("resilience.watchdog_cancels", 0) >= 1
    )
    scenarios["trainer_hang"] = data

    # -- corrupt trace feed: tolerant reader skips mangled lines -------------
    plan = FaultPlan([
        FaultSpec(site="trace.read_line", kind="corrupt", every=397)
    ])
    dirty_trace, skipped = _corrupted_trace(
        cdn_mix_trace(N_REQUESTS), plan, tmp_dir
    )
    data = _serve(list(dirty_trace), _make_lfo(cache), None)
    data["counters"]["resilience.trace_lines_skipped"] = skipped
    data["engaged"] = skipped >= 1
    scenarios["corrupt_trace"] = data

    # -- slow solves: injected latency on every training job -----------------
    plan = FaultPlan([
        FaultSpec(
            site="online.train_window", kind="latency",
            every=1, latency_seconds=0.02,
        )
    ])
    lfo = _make_lfo(cache)
    data = _serve(trace, lfo, plan)
    data["engaged"] = lfo.n_retrains >= 1
    scenarios["solve_latency"] = data

    return baseline_bhr, scenarios


def _latency_ok(slo_verdict: dict) -> bool:
    objectives = slo_verdict["objectives"]
    return all(objectives[name]["ok"] for name in LATENCY_OBJECTIVES)


def test_serving_matrix(benchmark, tmp_path):
    baseline_bhr, scenarios = benchmark.pedantic(
        run_serving_matrix, args=(str(tmp_path),), rounds=1, iterations=1
    )

    rows = []
    document = {"n_requests": N_REQUESTS, "baseline_bhr": baseline_bhr,
                "scenarios": {}}
    for name, data in scenarios.items():
        serve_report = data["report"]
        objectives = data["slo"]["objectives"]
        p999 = objectives["decision_latency_p999"]["last_value"]
        rows.append([
            name,
            serve_report.requests,
            serve_report.bhr,
            serve_report.bhr - baseline_bhr,
            serve_report.model_handoffs,
            serve_report.dropped,
            p999 * 1e6,
            "ok" if _latency_ok(data["slo"]) else "BREACH",
            "yes" if data["engaged"] else "NO",
        ])
        document["scenarios"][name] = {
            "serve": serve_report.as_dict(),
            "delta_vs_baseline": serve_report.bhr - baseline_bhr,
            "slo": data["slo"],
            "counters": {
                k: v for k, v in data["counters"].items()
                if k.startswith(("resilience.", "serve.", "online."))
            },
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    write_json(document, RESULTS_DIR / "ext_serving.json")
    report(
        "ext_serving",
        table(
            ["scenario", "requests", "bhr", "delta", "handoffs",
             "dropped", "p999_us", "slo", "engaged"],
            rows,
        )
        + f"\n(gates: dropped == 0 and latency SLOs ok in every scenario; "
        f"|delta| <= {BHR_TOLERANCE:.2f}; baseline handoffs >= 1 with "
        "score drift judging > 0 windows and zero violations)",
    )

    for name, data in scenarios.items():
        serve_report = data["report"]
        assert serve_report.requests > 0, name
        assert serve_report.dropped == 0, (name, serve_report.as_dict())
        assert serve_report.drained, name
        assert _latency_ok(data["slo"]), (name, data["slo"])
        assert data["engaged"], (name, data["counters"])
        assert abs(serve_report.bhr - baseline_bhr) <= BHR_TOLERANCE, (
            name, serve_report.bhr, baseline_bhr
        )
    # Warm handoff must not read as score drift: the PSI burn-in resets
    # the baseline at each install window.
    baseline = scenarios["baseline"]
    assert baseline["report"].model_handoffs >= 1
    score_drift = baseline["slo"]["objectives"]["score_drift"]
    assert score_drift["evaluated_windows"] > 0, score_drift
    assert score_drift["violations"] == 0, score_drift

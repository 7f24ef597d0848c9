"""Extension experiment: the fault matrix, simulated and served.

The paper's "robust" claim is usually read as robustness to *workload*.
A production CDN cache also has to be robust to *itself*: trainers
crash, training jobs hang, solves slow down, and trace feeds deliver
garbage lines.  Each row of :data:`SCENARIOS` is one such failure mode,
and each runs through two drivers over the same trace and policy, on the
deterministic :class:`SimulatedTrainerExecutor`: ``simulate`` under a
:class:`MetricsRegistry`, and :class:`repro.serve.ServingLoop` (the
asyncio loop behind ``lfo serve``) under a :class:`WindowedRegistry`
with the default SLO spec, its hits collected through ``on_decision``.

The inline executor trains at window edges, between scoring batches, so
**served hits equal simulated hits, request for request**, in every
scenario.  The table's two BHR columns are one hit vector read twice:
``warm_bhr`` after ``simulate``'s 20% warmup, ``run_bhr`` over the run.
The other gates, in every scenario: both runs replay the whole trace and
the scenario's degradation path (watchdog, backoff, staleness fallback,
tolerant reading) engaged in both; neither BHR reading moves more than 5
points off the fault-free baseline's; the served run drops nothing and
drains; the decision-latency objectives hold.  On the baseline: at least
one model handoff, and ``score_drift`` judges some windows without an
alarm (its PSI burn-in absorbs each install).

Results: ``results/ext_fault_matrix.txt`` (the table),
``results/ext_fault_matrix.json`` (simulated runs: training and
resilience counters) and ``results/ext_serving.json`` (served runs:
serve report, SLO verdict, counters).  ``FAULT_BENCH_REQUESTS`` scales
the trace.  A new fault site is one more row of :data:`SCENARIOS`.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
from common import RESULTS_DIR, cache_for, cdn_mix_trace, report, table

from repro.core import LFOOnline, OptLabelConfig
from repro.gbdt import GBDTParams
from repro.obs import (
    MetricsRegistry, SloEngine, SloSpec, WindowedRegistry, use_registry,
    write_json,
)
from repro.resilience import (
    FaultPlan, FaultSpec, SimulatedTrainerExecutor, use_fault_plan,
)
from repro.serve import ServingLoop, TraceReplayDriver
from repro.sim import simulate
from repro.trace import read_text_trace, write_text_trace

N_REQUESTS = int(os.environ.get("FAULT_BENCH_REQUESTS", "12000"))
WINDOW = 2_000
SEGMENT = 500
#: Half a training window, so a settled window sits between two installs
#: and the ``score_drift`` gate judges some windows.
TELEMETRY_WINDOW = 500
BHR_TOLERANCE = 0.05  # max |BHR - baseline| under any single fault
#: Held under every fault (BHR and staleness verdicts are recorded in the
#: JSON, gated only via the BHR tolerance: small traces sit near the floor).
LATENCY_OBJECTIVES = (
    "decision_latency_p50", "decision_latency_p99", "decision_latency_p999",
)
FAST_PARAMS = GBDTParams(num_iterations=10)

#: name -> (fault specs, ``LFOOnline`` overrides, counters each run must
#: have moved).  Specs on ``trace.*`` sites corrupt the trace as it is
#: read; any other spec is live during both runs.
SCENARIOS: dict[str, tuple[tuple[FaultSpec, ...], dict, tuple[str, ...]]] = {
    "baseline": ((), {}, ("online.model_installs",)),
    "trainer_crash": (  # the second training attempt raises
        (FaultSpec(site="online.train_window", kind="crash", at=(1,)),),
        {}, ("online.failed_retrains", "resilience.backoff_skips"),
    ),
    "trainer_hang": (  # the second submission parks; the watchdog cancels
        (FaultSpec(site="trainer.submit", kind="hang", at=(1,)),),
        {"train_deadline": 800}, ("resilience.watchdog_cancels",),
    ),
    "corrupt_trace": (  # the tolerant reader skips mangled lines
        (FaultSpec(site="trace.read_line", kind="corrupt", every=397),),
        {}, ("resilience.trace_lines_skipped",),
    ),
    "solve_latency": (  # injected latency on every training job
        (FaultSpec(site="online.train_window", kind="latency", every=1,
                   latency_seconds=0.02),),
        {}, ("online.model_installs",),
    ),
}


def _make_lfo(cache_size: int, **overrides) -> LFOOnline:
    """The scenario-standard online loop: background mode on the inline
    deterministic executor, with backoff and the staleness guard armed."""
    options = dict(
        window=WINDOW,
        gbdt_params=FAST_PARAMS,
        n_gaps=10,
        label_config=OptLabelConfig(mode="segmented", segment_length=SEGMENT),
        background=True,
        executor=SimulatedTrainerExecutor(),
        staleness_limit=2,
        retry_backoff=1,
    )
    options.update(overrides)
    return LFOOnline(cache_size, **options)


def _finish(lfo: LFOOnline) -> None:
    """End of drill: run parked jobs, never block on a hung future."""
    lfo.trainer.executor.release_hung()
    lfo.finish_training(timeout=0)


def _simulate(trace, lfo, plan) -> dict:
    registry = MetricsRegistry()
    with use_registry(registry), use_fault_plan(plan):
        result = simulate(trace, lfo)
        _finish(lfo)
    return {"result": result, "hits": result.hits,
            "counters": registry.to_dict()["counters"]}


def _serve(trace, lfo, plan) -> dict:
    registry = WindowedRegistry(
        every_requests=TELEMETRY_WINDOW, request_counter="serve.requests"
    )
    engine = SloEngine(SloSpec.default()).attach(registry)
    hits: list[bool] = []
    with use_registry(registry), use_fault_plan(plan):
        loop = ServingLoop(lfo, TraceReplayDriver(trace),
                           on_decision=lambda _request, hit: hits.append(hit))
        serve_report = asyncio.run(loop.run())
        _finish(lfo)
    return {"report": serve_report, "hits": np.array(hits, dtype=bool),
            "counters": registry.to_dict()["counters"],
            "slo": engine.verdict()}


def _corrupted_trace(trace, specs, tmp_dir):
    """The trace round-tripped through text with the read-time faults on,
    and the number of lines the tolerant reader skipped."""
    path = os.path.join(tmp_dir, "fault_matrix_trace.txt")
    write_text_trace(trace, path)
    registry = MetricsRegistry()
    with use_registry(registry), use_fault_plan(FaultPlan(list(specs))):
        reread = read_text_trace(path, tolerant=True)
    return reread, registry.to_dict()["counters"].get(
        "resilience.trace_lines_skipped", 0
    )


def run_fault_matrix(tmp_dir: str) -> dict[str, dict]:
    """Every scenario through both drivers: name -> {"sim": run,
    "served": run, "n_requests": trace length}."""
    clean = cdn_mix_trace(N_REQUESTS)
    cache = cache_for(clean)
    scenarios = {}
    for name, (specs, overrides, engaged) in SCENARIOS.items():
        trace, counted = clean, {}
        if specs and all(s.site.startswith("trace.") for s in specs):
            trace, skipped = _corrupted_trace(clean, specs, tmp_dir)
            specs, counted = (), {"resilience.trace_lines_skipped": skipped}
        scenarios[name] = {"n_requests": len(trace)}
        for key, driver in (("sim", _simulate), ("served", _serve)):
            lfo = _make_lfo(cache, **overrides)
            run = driver(trace, lfo, FaultPlan(list(specs)) if specs else None)
            lfo.trainer.executor.shutdown(cancel_futures=True)
            run["counters"].update(counted)
            run["engaged"] = all(run["counters"].get(c, 0) for c in engaged)
            scenarios[name][key] = run
    return scenarios


def _latency_ok(slo_verdict: dict) -> bool:
    objectives = slo_verdict["objectives"]
    return all(objectives[name]["ok"] for name in LATENCY_OBJECTIVES)


def _picked(counters: dict, prefixes: tuple[str, ...]) -> dict:
    return {k: v for k, v in counters.items() if k.startswith(prefixes)}


def test_fault_matrix(benchmark, tmp_path):
    scenarios = benchmark.pedantic(
        run_fault_matrix, args=(str(tmp_path),), rounds=1, iterations=1
    )
    warm_base = scenarios["baseline"]["sim"]["result"].bhr
    run_base = scenarios["baseline"]["served"]["report"].bhr
    simulated = {"n_requests": N_REQUESTS, "baseline_bhr": warm_base,
                 "scenarios": {}}
    served = {"n_requests": N_REQUESTS, "baseline_bhr": run_base,
              "scenarios": {}}
    rows = []
    for name, data in scenarios.items():
        sim, serve = data["sim"], data["served"]
        result, serve_report = sim["result"], serve["report"]
        objectives = serve["slo"]["objectives"]
        rows.append([
            name, result.n_requests, result.bhr, result.bhr - warm_base,
            serve_report.bhr, serve_report.bhr - run_base,
            result.training["n_retrains"], serve_report.model_handoffs,
            serve_report.dropped,
            objectives["decision_latency_p999"]["last_value"] * 1e6,
            "ok" if _latency_ok(serve["slo"]) else "BREACH",
            "yes" if np.array_equal(sim["hits"], serve["hits"]) else "NO",
            "yes" if sim["engaged"] and serve["engaged"] else "NO",
        ])
        simulated["scenarios"][name] = {
            "bhr": result.bhr, "ohr": result.ohr,
            "delta_vs_baseline": result.bhr - warm_base,
            "training": result.training, "resilience": result.resilience,
            "counters": _picked(
                sim["counters"], ("resilience.", "online.failed_retrains")
            ),
        }
        served["scenarios"][name] = {
            "serve": serve_report.as_dict(),
            "delta_vs_baseline": serve_report.bhr - run_base,
            "slo": serve["slo"],
            "counters": _picked(
                serve["counters"], ("resilience.", "serve.", "online.")
            ),
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    write_json(simulated, RESULTS_DIR / "ext_fault_matrix.json")
    write_json(served, RESULTS_DIR / "ext_serving.json")
    report(
        "ext_fault_matrix",
        table(
            ["scenario", "requests", "warm_bhr", "delta", "run_bhr",
             "run_delta", "retrains", "handoffs", "dropped", "p999_us",
             "slo", "same_hits", "engaged"],
            rows,
        )
        + "\n(one hit vector per scenario, simulated and served: warm_bhr "
        "after simulate's 20% warmup, run_bhr over the whole run)\n"
        f"(gates: same_hits; |delta| and |run_delta| <= {BHR_TOLERANCE:.2f}"
        "; dropped == 0 and latency SLOs ok; 'engaged' = the scenario's "
        "degradation path fired; baseline handoffs >= 1 with score drift "
        "judging > 0 windows and zero violations)",
    )

    for name, data in scenarios.items():
        sim, serve = data["sim"], data["served"]
        result, serve_report = sim["result"], serve["report"]
        assert result.n_requests == data["n_requests"], name
        assert serve_report.requests == data["n_requests"], name
        assert sim["engaged"], (name, sim["counters"])
        assert serve["engaged"], (name, serve["counters"])
        assert np.array_equal(sim["hits"], serve["hits"]), name
        assert abs(result.bhr - warm_base) <= BHR_TOLERANCE, (
            name, result.bhr, warm_base
        )
        assert abs(serve_report.bhr - run_base) <= BHR_TOLERANCE, (
            name, serve_report.bhr, run_base
        )
        assert serve_report.dropped == 0, (name, serve_report.as_dict())
        assert serve_report.drained, name
        assert _latency_ok(serve["slo"]), (name, serve["slo"])
    baseline = scenarios["baseline"]["served"]
    assert baseline["report"].model_handoffs >= 1
    score_drift = baseline["slo"]["objectives"]["score_drift"]
    assert score_drift["evaluated_windows"] > 0, score_drift
    assert score_drift["violations"] == 0, score_drift

"""Extension experiment: BHR under injected faults (the fault matrix).

The paper's "robust" claim is usually read as robustness to *workload*
(traffic mix, drift).  A production CDN cache also has to be robust to
*itself*: trainers crash, training jobs hang, and trace feeds deliver garbage
lines.  This
benchmark drives the full LFO-online loop through one deterministic fault
scenario per failure mode — using :mod:`repro.resilience` fault plans and
the :class:`SimulatedTrainerExecutor` so every run replays identically —
and records the byte hit ratio under each fault next to the fault-free
baseline.

The headline gate: **every scenario finishes, and no single injected
fault moves BHR by more than 5 points** — the degradation machinery
(watchdog, backoff, tolerant trace reading) turns each fault into a counted, bounded event instead of an
outage.  The per-scenario ``resilience.*`` counters are asserted nonzero,
so the run also proves each degradation path actually engaged.

Results land in ``results/ext_fault_matrix.txt`` (table) and
``results/ext_fault_matrix.json`` (full counters; the CI artifact).
``FAULT_BENCH_REQUESTS`` scales the trace for smoke runs.
"""

from __future__ import annotations

import os

from common import RESULTS_DIR, cache_for, cdn_mix_trace, report, table

from repro.core import LFOOnline, OptLabelConfig
from repro.gbdt import GBDTParams
from repro.obs import MetricsRegistry, use_registry, write_json
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    SimulatedTrainerExecutor,
    use_fault_plan,
)
from repro.sim import simulate
from repro.trace import read_text_trace, write_text_trace

N_REQUESTS = int(os.environ.get("FAULT_BENCH_REQUESTS", "12000"))
WINDOW = 2_000
SEGMENT = 500
BHR_TOLERANCE = 0.05  # max |BHR - baseline| under any single fault

FAST_PARAMS = GBDTParams(num_iterations=10)


def _make_lfo(cache_size: int, **kwargs) -> LFOOnline:
    """The scenario-standard online loop: background mode on the inline
    deterministic executor, with backoff and the staleness guard armed."""
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


def _run(trace, lfo, plan):
    """Simulate one scenario under its plan; returns (result, counters)."""
    registry = MetricsRegistry()
    with use_registry(registry), use_fault_plan(plan):
        result = simulate(trace, lfo)
        lfo.finish_training(timeout=0)  # never blocks on a hung future
    lfo.trainer.executor.shutdown(cancel_futures=True)
    counters = registry.to_dict()["counters"]
    return result, counters


def _corrupted_trace(trace, plan, tmp_dir):
    """Round-trip the trace through text with corrupt-line injection on."""
    path = os.path.join(tmp_dir, "fault_matrix_trace.txt")
    write_text_trace(trace, path)
    registry = MetricsRegistry()
    with use_registry(registry), use_fault_plan(plan):
        reread = read_text_trace(path, tolerant=True)
    skipped = registry.to_dict()["counters"].get(
        "resilience.trace_lines_skipped", 0
    )
    return reread, skipped


def run_fault_matrix(tmp_dir: str):
    trace = cdn_mix_trace(N_REQUESTS)
    cache = cache_for(trace)
    scenarios: dict[str, dict] = {}

    # -- baseline: no faults -------------------------------------------------
    result, counters = _run(trace, _make_lfo(cache), None)
    baseline_bhr = result.bhr
    scenarios["baseline"] = {
        "result": result, "counters": counters, "engaged": True,
    }

    # -- trainer crash: second training attempt raises -----------------------
    plan = FaultPlan([
        FaultSpec(site="online.train_window", kind="crash", at=(1,))
    ])
    result, counters = _run(trace, _make_lfo(cache), plan)
    scenarios["trainer_crash"] = {
        "result": result, "counters": counters,
        "engaged": counters.get("online.failed_retrains", 0) >= 1
        and counters.get("resilience.backoff_skips", 0) >= 1,
    }

    # -- trainer hang: second submission never resolves; watchdog cancels ----
    plan = FaultPlan([
        FaultSpec(site="trainer.submit", kind="hang", at=(1,))
    ])
    result, counters = _run(
        trace, _make_lfo(cache, train_deadline=800), plan
    )
    scenarios["trainer_hang"] = {
        "result": result, "counters": counters,
        "engaged": counters.get("resilience.watchdog_cancels", 0) >= 1,
    }

    # -- corrupt trace feed: tolerant reader skips mangled lines -------------
    plan = FaultPlan([
        FaultSpec(site="trace.read_line", kind="corrupt", every=397)
    ])
    dirty_trace, skipped = _corrupted_trace(trace, plan, tmp_dir)
    result, counters = _run(dirty_trace, _make_lfo(cache), None)
    counters["resilience.trace_lines_skipped"] = skipped
    scenarios["corrupt_trace"] = {
        "result": result, "counters": counters, "engaged": skipped >= 1,
    }

    # -- slow solves: injected latency on every training job -----------------
    plan = FaultPlan([
        FaultSpec(
            site="online.train_window", kind="latency",
            every=1, latency_seconds=0.02,
        )
    ])
    result, counters = _run(trace, _make_lfo(cache), plan)
    scenarios["solve_latency"] = {
        "result": result, "counters": counters,
        "engaged": result.training["n_retrains"] >= 1,
    }

    return baseline_bhr, scenarios


def test_fault_matrix(benchmark, tmp_path):
    baseline_bhr, scenarios = benchmark.pedantic(
        run_fault_matrix, args=(str(tmp_path),), rounds=1, iterations=1
    )

    rows = []
    document = {"n_requests": N_REQUESTS, "baseline_bhr": baseline_bhr,
                "scenarios": {}}
    for name, data in scenarios.items():
        result = data["result"]
        resilience_counters = {
            k: v for k, v in data["counters"].items()
            if k.startswith("resilience.") or k == "online.failed_retrains"
        }
        rows.append([
            name,
            result.n_requests,
            result.bhr,
            result.bhr - baseline_bhr,
            result.training["n_retrains"],
            "yes" if data["engaged"] else "NO",
        ])
        document["scenarios"][name] = {
            "bhr": result.bhr,
            "ohr": result.ohr,
            "delta_vs_baseline": result.bhr - baseline_bhr,
            "training": result.training,
            "resilience": result.resilience,
            "counters": resilience_counters,
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    write_json(document, RESULTS_DIR / "ext_fault_matrix.json")
    report(
        "ext_fault_matrix",
        table(
            ["scenario", "requests", "bhr", "delta", "retrains", "engaged"],
            rows,
        )
        + f"\n(gate: |delta| <= {BHR_TOLERANCE:.2f} under every single "
        "fault; 'engaged' = the scenario's degradation path fired)",
    )

    for name, data in scenarios.items():
        result = data["result"]
        assert result.n_requests > 0, name  # the loop finished the trace
        assert data["engaged"], (name, data["counters"])
        assert abs(result.bhr - baseline_bhr) <= BHR_TOLERANCE, (
            name, result.bhr, baseline_bhr
        )

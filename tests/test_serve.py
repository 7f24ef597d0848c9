"""Tests for the always-on serving harness (``repro.serve``).

The load-bearing claims, each pinned here:

* (that the batched serving path is **bit-identical** to the scalar
  ``policy.on_request`` loop is pinned, with every other engine, in
  ``tests/test_engines_differential.py``;)
* **zero dropped requests** is structural — a full queue backpressures
  the producer, and cancellation drains everything queued;
* warm model handoff raises **no PSI false alarm** — the
  ``score_drift`` objective's burn-in skips the install window;
* abrupt cancellation flushes the final partial telemetry window
  **exactly once** (the JSONL sink sees every window, no duplicates);
* fault plans compose: a hung trainer engages the watchdog without
  touching the request path.
"""

import asyncio
import json

import pytest

from repro.core import LFOOnline, OptLabelConfig
from repro.gbdt import GBDTParams
from repro.obs import (
    JsonlSink,
    SloEngine,
    SloSpec,
    WindowedRegistry,
    use_registry,
)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    SimulatedTrainerExecutor,
    use_fault_plan,
)
from repro.serve import (
    BatchScorer,
    ServeConfig,
    ServingLoop,
    SyntheticArrivalDriver,
    TraceReplayDriver,
)
from repro.trace import SyntheticConfig, generate_trace

FAST_PARAMS = GBDTParams(num_iterations=10)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        SyntheticConfig(n_requests=4000, n_objects=300, seed=7)
    )


def make_policy(trace, **kwargs) -> LFOOnline:
    """A serving-ready policy: background training, inline executor."""
    defaults = dict(
        cache_size=trace.footprint() // 10,
        window=1000,
        gbdt_params=FAST_PARAMS,
        n_gaps=10,
        label_config=OptLabelConfig(mode="segmented", segment_length=500),
        background=True,
        executor=SimulatedTrainerExecutor(),
    )
    defaults.update(kwargs)
    return LFOOnline(**defaults)


def serve(trace, policy, config=None, driver=None):
    loop = ServingLoop(
        policy, driver or TraceReplayDriver(trace), config=config
    )
    report = asyncio.run(loop.run())
    policy.close()
    return report


class TestReport:
    def test_report_byte_accounting(self, trace):
        policy = make_policy(trace)
        report = serve(trace, policy)
        total = sum(r.size for r in trace)
        assert report.hit_bytes + report.miss_bytes == pytest.approx(total)
        assert report.bhr == pytest.approx(
            report.hit_bytes / total
        )
        assert report.drained
        assert report.dropped == 0


class TestBackpressure:
    def test_tiny_queue_waits_instead_of_dropping(self, trace):
        policy = make_policy(trace)
        config = ServeConfig(queue_depth=4, max_batch=4)
        report = serve(trace, policy, config=config)
        assert report.requests == len(trace)
        assert report.dropped == 0
        assert report.backpressure_waits > 0

    def test_synthetic_arrival_driver_completes(self, trace):
        short = trace[:400]
        policy = make_policy(short, window=200)
        driver = SyntheticArrivalDriver(short, rate=200_000, seed=11)
        report = serve(short, policy, driver=driver)
        assert report.requests == len(short)
        assert report.dropped == 0


class TestWarmHandoff:
    def test_handoff_raises_no_score_drift_alert(self, trace):
        # 250-request windows: each 1000-request training window leaves
        # settled windows between installs for the PSI to compare.
        registry = WindowedRegistry(
            every_requests=250, ring=64, request_counter="serve.requests"
        )
        engine = SloEngine(SloSpec.default()).attach(registry)
        with use_registry(registry):
            policy = make_policy(trace)
            report = serve(trace, policy)
        assert report.model_handoffs >= 1
        # PSI burn-in: the install window resets the score baseline, so
        # a warm handoff must never read as score drift — and the detector
        # must actually have judged windows for that to mean anything.
        objectives = engine.verdict()["objectives"]
        assert objectives["score_drift"]["violations"] == 0
        assert objectives["score_drift"]["evaluated_windows"] > 0
        assert objectives["decision_latency_p999"]["ok"]

    def test_handoff_counter_matches_report(self, trace):
        registry = WindowedRegistry(
            every_requests=1000, request_counter="serve.requests"
        )
        with use_registry(registry):
            policy = make_policy(trace)
            report = serve(trace, policy)
            registry.flush()
        installed = sum(
            s.delta("serve.model_handoffs") for s in registry.windows()
        )
        assert installed == report.model_handoffs


class TestCancellationDrain:
    def test_drain_flushes_tail_exactly_once(self, trace, tmp_path):
        jsonl = tmp_path / "windows.jsonl"
        registry = WindowedRegistry(
            every_requests=500, ring=64, request_counter="serve.requests"
        )
        JsonlSink(str(jsonl)).attach(registry)

        async def run_and_cancel():
            with use_registry(registry):
                policy = make_policy(trace)
                loop = ServingLoop(
                    policy,
                    TraceReplayDriver(trace, yield_every=16),
                    config=ServeConfig(queue_depth=64, max_batch=16),
                )
                task = asyncio.create_task(loop.run())
                while loop.report.requests < 1200 and not task.done():
                    await asyncio.sleep(0)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                policy.close()
                return loop

        loop = asyncio.run(run_and_cancel())
        report = loop.report
        assert report.dropped == 0
        assert report.drained
        # The drain scored everything the producer had queued.
        assert report.requests >= 1200
        lines = [
            json.loads(line)
            for line in jsonl.read_text().splitlines()
            if line
        ]
        windows = registry.windows()
        assert len(lines) == len(windows)
        assert sum(line["requests"] for line in lines) == report.requests
        # A second flush after finalise must not re-close the tail.
        assert registry.flush() is None
        assert len(jsonl.read_text().splitlines()) == len(lines)


class TestFaultComposition:
    def test_hung_trainer_engages_watchdog_not_request_path(self, trace):
        plan = FaultPlan(
            [FaultSpec(site="trainer.submit", kind="hang", at=(1,))],
            seed=5,
        )
        executor = SimulatedTrainerExecutor()
        with use_fault_plan(plan):
            policy = make_policy(
                trace, executor=executor, train_deadline=800
            )
            report = serve(trace, policy)
        assert report.requests == len(trace)
        assert report.dropped == 0
        assert policy.trainer.n_watchdog_cancels >= 1
        # The first (un-hung) train installed, so serving still handed off.
        assert report.model_handoffs >= 1
        executor.release_hung()
        executor.shutdown(cancel_futures=True)


class TestDecisionLatency:
    def test_one_sample_per_request_served(self, trace):
        """``BatchScorer`` times every decision exactly once: through the
        cold start, the first install, and a step a model swap ended early
        (rows probed past the swap are decided, and timed, by the next
        step)."""
        plan = FaultPlan(
            [FaultSpec(site="trainer.submit", kind="hang", at=(0,))], seed=5
        )
        executor = SimulatedTrainerExecutor()
        registry = WindowedRegistry(
            every_requests=500, request_counter="serve.requests"
        )
        requests = list(trace)[:3000]
        with use_registry(registry), use_fault_plan(plan):
            policy = make_policy(trace, executor=executor)
            inner, decided = policy.apply_scored, [0]

            def apply_scored(*args):
                decided[0] += 1
                if decided[0] == 1250:  # mid-step: the parked job lands
                    executor.release_hung()
                return inner(*args)

            policy.apply_scored = apply_scored
            scorer = BatchScorer(policy)
            latency = registry.histogram("serve.decision_latency_seconds")
            counts, models = [], []
            for start in range(0, len(requests), 100):
                scorer.process(requests[start:start + 100])
                counts.append(latency.count)
                models.append(policy.model)
        policy.close()
        executor.shutdown(cancel_futures=True)
        assert counts == list(range(100, len(requests) + 1, 100))
        assert models[11] is None and models[12] is not None  # cold, then live
        assert scorer.n_handoffs == 2  # the released job, then window 2's
        assert scorer._engine.rows_probed > len(requests)  # a swap cut a step


class TestValidation:
    def test_scorer_rejects_rescore_interval(self, trace):
        policy = make_policy(trace, rescore_interval=100)
        with pytest.raises(ValueError, match="rescore_interval"):
            BatchScorer(policy)
        policy.close()

    def test_scorer_rejects_bad_batch(self, trace):
        policy = make_policy(trace)
        with pytest.raises(ValueError, match="max_batch"):
            BatchScorer(policy, max_batch=0)
        policy.close()

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            ServeConfig(queue_depth=0)
        with pytest.raises(ValueError):
            ServeConfig(max_batch=0)

    def test_driver_bounds(self, trace):
        with pytest.raises(ValueError):
            TraceReplayDriver(trace, yield_every=0)
        with pytest.raises(ValueError):
            SyntheticArrivalDriver(trace, rate=0.0)

    def test_default_slo_shape(self):
        spec = SloSpec.default()
        names = {o.name for o in spec.objectives}
        assert {
            "decision_latency_p50",
            "decision_latency_p99",
            "decision_latency_p999",
            "window_bhr",
            "train_to_install",
        } <= names

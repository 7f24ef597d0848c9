"""Tests for the fault-injection harness and graceful degradation.

Covers the declarative :class:`FaultPlan` machinery itself, the
deterministic :class:`SimulatedTrainerExecutor`, and — via a small
end-to-end drill — what :class:`LFOOnline` does with a stale model.  The
trainer's own state machine (watchdog, backoff, halt, staleness) is
drilled with a stub job in ``test_core_trainer.py``.
"""

import pickle

import pytest

from repro.cache import LRUCache
from repro.core import LFOOnline, OptLabelConfig
from repro.gbdt import GBDTParams
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    SimulatedTrainerExecutor,
    get_fault_plan,
    use_fault_plan,
)
from repro.sim import simulate
from repro.trace import Request, Trace

FAST_PARAMS = GBDTParams(num_iterations=10)


def recurring_trace(n: int, n_objects: int = 10, size: int = 10) -> Trace:
    """A deterministic trace with heavy recurrence (OPT admits plenty)."""
    return Trace([Request(float(i), i % n_objects, size) for i in range(n)])


def make_online(**kwargs) -> LFOOnline:
    defaults = dict(
        cache_size=60,
        window=40,
        gbdt_params=FAST_PARAMS,
        label_config=OptLabelConfig(mode="segmented", segment_length=20),
        n_gaps=5,
        min_positive_labels=1,
    )
    defaults.update(kwargs)
    return LFOOnline(**defaults)


class TestInjectedFaultError:
    def test_pickle_roundtrip_keeps_site(self):
        err = InjectedFaultError("online.train_window")
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, InjectedFaultError)
        assert back.site == "online.train_window"


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="site"):
            FaultSpec(site="")
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(site="s", kind="meltdown")
        with pytest.raises(ValueError, match="mutually exclusive"):
            FaultSpec(site="s", at=(0,), every=2)
        with pytest.raises(ValueError, match="every"):
            FaultSpec(site="s", every=0)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(site="s", probability=1.5)
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(site="s", max_fires=0)
        with pytest.raises(ValueError, match="latency"):
            FaultSpec(site="s", latency_seconds=-1.0)
        assert "crash" in FAULT_KINDS

    def test_selectors(self):
        import numpy as np

        rng = np.random.default_rng(0)
        at = FaultSpec(site="s", at=(1, 3))
        assert [at.matches(i, rng) for i in range(4)] == [
            False, True, False, True,
        ]
        every = FaultSpec(site="s", every=2)
        assert [every.matches(i, rng) for i in range(4)] == [
            True, False, True, False,
        ]
        always = FaultSpec(site="s")
        assert always.matches(7, rng)

    def test_dict_roundtrip(self):
        spec = FaultSpec(site="s", kind="latency", at=(2,), latency_seconds=0.5)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlan:
    def test_occurrence_counting(self):
        plan = FaultPlan([FaultSpec(site="s", at=(1,))])
        assert plan.should_fire("s") is None       # occurrence 0
        assert plan.should_fire("s") is not None   # occurrence 1
        assert plan.should_fire("s") is None       # occurrence 2
        assert plan.fires() == {"s": 1}

    def test_max_fires_disarms(self):
        plan = FaultPlan([FaultSpec(site="s", every=1, max_fires=2)])
        hits = [plan.should_fire("s") is not None for _ in range(5)]
        assert hits == [True, True, False, False, False]

    def test_declaration_order_wins(self):
        first = FaultSpec(site="s", kind="latency", every=1)
        second = FaultSpec(site="s", kind="crash", every=1)
        plan = FaultPlan([first, second])
        assert plan.should_fire("s") is first

    def test_probability_is_seeded_and_replayable(self):
        spec = FaultSpec(site="s", probability=0.3)
        a = FaultPlan([spec], seed=42)
        b = FaultPlan([spec], seed=42)
        pattern_a = [a.should_fire("s") is not None for _ in range(50)]
        pattern_b = [b.should_fire("s") is not None for _ in range(50)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)
        a.reset()
        assert [
            a.should_fire("s") is not None for _ in range(50)
        ] == pattern_a

    def test_inject_crash_and_latency(self):
        plan = FaultPlan([
            FaultSpec(site="boom", kind="crash", at=(0,)),
            FaultSpec(site="slow", kind="latency", latency_seconds=0.0),
        ])
        with pytest.raises(InjectedFaultError, match="boom"):
            plan.inject("boom")
        plan.inject("boom")  # occurrence 1: no spec fires
        plan.inject("slow")  # zero-second sleep, no raise

    def test_corrupt_line(self):
        plan = FaultPlan([
            FaultSpec(site="trace.read_line", kind="corrupt", at=(1,))
        ])
        assert plan.corrupt_line("0 1 10") == "0 1 10"
        assert plan.corrupt_line("1 2 20") == "!corrupt! 1 2 20"

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(site="s", kind="corrupt", every=7, max_fires=2)],
            seed=9,
        )
        path = tmp_path / "plan.json"
        plan.to_json(path)
        back = FaultPlan.from_json(path)
        assert back.seed == 9
        assert back.faults == plan.faults

    def test_use_fault_plan_restores_previous(self):
        outer = FaultPlan([])
        inner = FaultPlan([])
        assert get_fault_plan() is None
        with use_fault_plan(outer):
            assert get_fault_plan() is outer
            with use_fault_plan(inner):
                assert get_fault_plan() is inner
            assert get_fault_plan() is outer
        assert get_fault_plan() is None


class TestSimulatedTrainerExecutor:
    def test_runs_inline_without_plan(self):
        pool = SimulatedTrainerExecutor()
        future = pool.submit(lambda a, b: a + b, 1, b=2)
        assert future.done()
        assert future.result() == 3

    def test_captures_exceptions(self):
        pool = SimulatedTrainerExecutor()
        future = pool.submit(lambda: 1 / 0)
        assert isinstance(future.exception(), ZeroDivisionError)

    def test_hang_parks_submission(self):
        pool = SimulatedTrainerExecutor()
        plan = FaultPlan([
            FaultSpec(site="trainer.submit", kind="hang", at=(0,))
        ])
        with use_fault_plan(plan):
            hung = pool.submit(lambda: 1)
            ran = pool.submit(lambda: 2)
        assert not hung.done()
        assert ran.result() == 2
        assert pool.n_hung == 1
        assert pool.release_hung() == 1
        assert hung.result() == 1

    def test_release_skips_cancelled(self):
        pool = SimulatedTrainerExecutor()
        plan = FaultPlan([FaultSpec(site="trainer.submit", kind="hang")])
        with use_fault_plan(plan):
            future = pool.submit(lambda: 1)
        assert future.cancel()
        assert pool.release_hung() == 0
        assert future.cancelled()

    def test_shutdown_cancels_parked(self):
        pool = SimulatedTrainerExecutor()
        plan = FaultPlan([FaultSpec(site="trainer.submit", kind="hang")])
        with use_fault_plan(plan):
            future = pool.submit(lambda: 1)
        pool.shutdown(cancel_futures=True)
        assert future.cancelled()
        assert pool.n_hung == 0


class TestConstructorValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_deadline": 0},
            {"staleness_limit": 0},
            {"fallback": "coinflip"},
            {"retry_backoff": -1},
            {"max_train_failures": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            LFOOnline(1000, **kwargs)


class TestStalenessFallback:
    def test_fallback_engages_and_recovers(self):
        pool = SimulatedTrainerExecutor()
        # First submission trains inline (model installs); every later
        # submission hangs, so the model goes stale.
        plan = FaultPlan([
            FaultSpec(site="trainer.submit", kind="hang", every=1)
        ])
        lfo = make_online(
            background=True, executor=pool, staleness_limit=2
        )
        registry = MetricsRegistry()
        trace = recurring_trace(600)
        with use_registry(registry):
            # No plan yet: first window trains inline and installs.
            for request in trace.requests[:81]:
                lfo.on_request(request)
            assert lfo.model is not None
            with use_fault_plan(plan):
                for request in trace.requests[81:400]:
                    lfo.on_request(request)
                assert lfo.trainer.degraded
                assert lfo.trainer.n_staleness_fallbacks == 1
                # Degraded "lru" mode admits everything.
                assert lfo._should_admit(0.0) is True
                # The parked job finally finishes: next request installs
                # the fresh model and leaves fallback mode.
                assert pool.release_hung() == 1
                lfo.on_request(trace.requests[400])
            assert not lfo.trainer.degraded
            assert lfo.trainer.n_staleness_recoveries == 1
        snapshot = registry.to_dict()
        assert snapshot["counters"]["resilience.staleness_fallbacks"] == 1
        assert snapshot["counters"]["resilience.staleness_recoveries"] == 1
        assert snapshot["gauges"]["resilience.staleness_fallback_active"] == 0.0
        pool.shutdown(cancel_futures=True)

    def test_bypass_fallback_admits_nothing(self):
        lfo = make_online(fallback="bypass", staleness_limit=1)
        lfo.trainer.degraded = True
        assert lfo._should_admit(1.0) is False


class TestResilienceSurfacing:
    def test_resilience_stats_keys(self):
        lfo = make_online()
        stats = lfo.resilience_stats
        assert set(stats) == {
            "n_watchdog_cancels",
            "n_backoff_skips",
            "n_staleness_fallbacks",
            "n_staleness_recoveries",
            "consecutive_failures",
            "windows_since_model",
            "degraded",
            "training_halted",
        }

    def test_simresult_carries_resilience(self):
        lfo = make_online()
        result = simulate(recurring_trace(100), lfo)
        assert result.resilience is not None
        assert result.resilience["degraded"] is False
        assert result.to_dict()["resilience"] == result.resilience

    def test_simresult_none_for_static_policies(self):
        result = simulate(recurring_trace(100), LRUCache(200))
        assert result.resilience is None
        assert result.to_dict()["resilience"] is None

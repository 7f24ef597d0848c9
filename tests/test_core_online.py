"""Tests for the online windowed LFO loop (the paper's Figure 2)."""

import threading
from concurrent.futures import Future
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache import LRUCache
from repro.core import LabelFitJob, LFOOnline, OptLabelConfig
from repro.core.trainer import _run_job
from repro.gbdt import GBDTParams
from repro.obs import MetricsRegistry, use_registry
from repro.sim import simulate
from repro.trace import (
    Request,
    SyntheticConfig,
    generate_adversarial_scan,
    generate_trace,
)

FAST_PARAMS = GBDTParams(num_iterations=10)


class ImmediateExecutor:
    """Runs submissions synchronously — deterministic background tests."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # pragma: no cover - test plumbing
            future.set_exception(exc)
        return future


class ManualExecutor:
    """Captures submissions without running them; tests resolve by hand."""

    def __init__(self):
        self.calls: list[tuple] = []

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_running_or_notify_cancel()
        self.calls.append((fn, args, kwargs, future))
        return future

    def run_call(self, index: int) -> None:
        """Execute a captured submission and resolve its future."""
        fn, args, kwargs, future = self.calls[index]
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:
            future.set_exception(exc)


def degenerate_window(n: int, start_obj: int = 10_000_000) -> list[Request]:
    """One-touch requests (no recurrence -> zero positive OPT labels)."""
    return [Request(float(i), start_obj + i, 10) for i in range(n)]


@pytest.fixture(scope="module")
def online_trace():
    return generate_trace(
        SyntheticConfig(
            n_requests=4000, n_objects=500, alpha=1.0,
            size_median=20, size_sigma=1.0, size_max=400,
            locality=0.3, seed=5,
        )
    )


class TestOptLabelConfig:
    def test_modes_agree_on_admissible_set(self, small_zipf_trace):
        cache = 500
        exact = OptLabelConfig(mode="exact").compute(small_zipf_trace, cache)
        seg = OptLabelConfig(mode="segmented", segment_length=500).compute(
            small_zipf_trace, cache
        )
        assert (exact == seg).mean() > 0.85

    def test_pruned_mode(self, small_zipf_trace):
        labels = OptLabelConfig(
            mode="pruned", keep_fraction=0.5, segment_length=500
        ).compute(small_zipf_trace, 500)
        assert labels.dtype == bool

    def test_unknown_mode_rejected(self, small_zipf_trace):
        with pytest.raises(ValueError):
            OptLabelConfig(mode="magic").compute(small_zipf_trace, 500)


class TestLFOOnline:
    def test_retrains_per_window(self, online_trace):
        cache = online_trace.footprint() // 8
        policy = LFOOnline(
            cache, window=1000, gbdt_params=FAST_PARAMS,
            label_config=OptLabelConfig(mode="segmented", segment_length=500),
            n_gaps=10,
        )
        simulate(online_trace, policy)
        assert policy.n_retrains == 4  # a retrain at each of 4 window closes

    def test_model_installed_after_first_window(self, online_trace):
        cache = online_trace.footprint() // 8
        policy = LFOOnline(
            cache, window=1000, gbdt_params=FAST_PARAMS, n_gaps=10,
            label_config=OptLabelConfig(mode="segmented", segment_length=500),
        )
        for request in online_trace[:999]:
            policy.on_request(request)
        assert policy.model is None  # still cold
        policy.on_request(online_trace[999])
        assert policy.model is not None

    def test_competitive_with_lru(self, online_trace):
        cache = online_trace.footprint() // 8
        lfo = LFOOnline(
            cache, window=1000, gbdt_params=FAST_PARAMS, n_gaps=10,
            label_config=OptLabelConfig(mode="segmented", segment_length=500),
        )
        r_lfo = simulate(online_trace, lfo, warmup_fraction=0.5)
        r_lru = simulate(
            online_trace, LRUCache(cache), warmup_fraction=0.5
        )
        # Tiny windows and 10 boosting iterations are a handicap; the
        # benchmark suite exercises the realistic configuration.  Here we
        # only require LFO to stay in LRU's neighbourhood.
        assert r_lfo.bhr > r_lru.bhr * 0.85

    def test_degenerate_scan_window_skips_retrain(self):
        """A pure one-touch scan yields no positive labels; training is
        skipped rather than producing a broken all-negative model."""
        scan = generate_adversarial_scan(1500, object_size=10)
        policy = LFOOnline(
            cache_size=1000, window=1000, gbdt_params=FAST_PARAMS, n_gaps=5,
        )
        simulate(scan, policy)
        assert policy.n_retrains == 0
        assert policy.model is None

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            LFOOnline(cache_size=100, window=0)

    def test_buffer_flushed_after_retrain(self, online_trace):
        cache = online_trace.footprint() // 8
        policy = LFOOnline(
            cache, window=500, gbdt_params=FAST_PARAMS, n_gaps=5,
            label_config=OptLabelConfig(mode="segmented", segment_length=250),
        )
        for request in online_trace[:1200]:
            policy.on_request(request)
        assert policy.window_remaining == 300


class TestRetrainBoundaries:
    """Window hand-over edge cases, serial mode."""

    def _policy(self, online_trace, window=500):
        cache = online_trace.footprint() // 8
        return LFOOnline(
            cache, window=window, gbdt_params=FAST_PARAMS, n_gaps=5,
            label_config=OptLabelConfig(mode="segmented", segment_length=250),
        )

    def test_flush_at_exactly_window_requests(self, online_trace):
        policy = self._policy(online_trace)
        for request in online_trace[:500]:
            policy.on_request(request)
        assert policy.window_remaining == 500
        assert policy.trainer.features == []
        assert policy.n_retrains == 1
        assert policy.model is not None

    def test_one_request_shy_of_window(self, online_trace):
        policy = self._policy(online_trace)
        for request in online_trace[:499]:
            policy.on_request(request)
        assert policy.window_remaining == 1
        assert policy.n_retrains == 0
        assert policy.model is None

    def test_min_positive_skip_preserves_model(self, online_trace):
        policy = self._policy(online_trace)
        for request in online_trace[:500]:
            policy.on_request(request)
        model = policy.model
        assert model is not None
        # A degenerate one-touch window: zero positive labels, no retrain,
        # and the previously installed model keeps serving untouched.
        for request in degenerate_window(500):
            policy.on_request(request)
        assert policy.model is model
        assert policy.n_retrains == 1

    def test_serial_counters(self, online_trace):
        policy = self._policy(online_trace)
        for request in online_trace[:1000]:
            policy.on_request(request)
        assert policy.n_retrains == 2
        assert policy.n_skipped_retrains == 0
        assert policy.n_failed_retrains == 0
        assert policy.trainer.last_training_seconds > 0.0
        assert policy.trainer.training_pending is False
        assert policy.finish_training() is False  # nothing in flight

    def test_training_stats_surfaced_in_simresult(self, online_trace):
        policy = self._policy(online_trace)
        result = simulate(online_trace[:1000], policy)
        assert result.training is not None
        assert result.training["n_retrains"] == policy.n_retrains == 2
        assert result.training["training_pending"] is False
        # Static policies report no training block.
        lru = simulate(online_trace[:200], LRUCache(1000))
        assert lru.training is None

    def test_reset_clears_training_state(self, online_trace):
        policy = self._policy(online_trace)
        for request in online_trace[:700]:
            policy.on_request(request)
        policy.reset()
        assert policy.n_retrains == 0
        assert policy.trainer.last_training_seconds == 0.0
        assert policy.window_remaining == 500


class TestBackgroundRetraining:
    """The production-shaped hand-over: training off the request path."""

    def _policy(self, online_trace, executor, window=500):
        cache = online_trace.footprint() // 8
        return LFOOnline(
            cache, window=window, gbdt_params=FAST_PARAMS, n_gaps=5,
            label_config=OptLabelConfig(mode="segmented", segment_length=250),
            background=True, executor=executor,
        )

    def test_model_handed_over_after_completion(self, online_trace):
        executor = ManualExecutor()
        policy = self._policy(online_trace, executor)
        for request in online_trace[:500]:
            policy.on_request(request)
        # Window closed: job submitted, nothing installed yet.
        assert len(executor.calls) == 1
        assert policy.model is None
        assert policy.n_retrains == 0
        assert policy.trainer.training_pending is True
        # Requests keep flowing on the cold-start model while "training".
        policy.on_request(online_trace[500])
        assert policy.model is None
        # Training completes; the very next request swaps the model in.
        executor.run_call(0)
        policy.on_request(online_trace[501])
        assert policy.model is not None
        assert policy.n_retrains == 1
        assert policy.trainer.training_pending is False

    def test_immediate_executor_matches_serial_count(self, online_trace):
        policy = self._policy(online_trace, ImmediateExecutor())
        for request in online_trace[:1000]:
            policy.on_request(request)
        policy.finish_training()  # the last window's job finished with the
        # trace; install it the way the next request would have.
        # The job finishes before the next request, so no window is skipped.
        assert policy.n_retrains == 2
        assert policy.n_skipped_retrains == 0
        assert policy.trainer.last_training_seconds > 0.0

    def test_failed_training_keeps_current_model(self, online_trace):
        policy = self._policy(online_trace, ImmediateExecutor())
        for request in online_trace[:500]:
            policy.on_request(request)
        policy.on_request(online_trace[500])
        model = policy.model
        assert model is not None and policy.n_retrains == 1
        # Sabotage the next window's label solve; the failure must be
        # counted and absorbed, never propagated to the request path.
        policy.trainer.job = replace(
            policy.trainer.job, label_config=OptLabelConfig(mode="broken")
        )
        with pytest.warns(RuntimeWarning, match="retrain failed"):
            for request in online_trace[501:1001]:
                policy.on_request(request)
        assert policy.model is model
        assert policy.n_failed_retrains == 1
        assert policy.n_retrains == 1

    def test_degenerate_window_in_background(self):
        policy = LFOOnline(
            cache_size=1000, window=400, gbdt_params=FAST_PARAMS, n_gaps=5,
            background=True, executor=ImmediateExecutor(),
        )
        for request in degenerate_window(900):
            policy.on_request(request)
        assert policy.model is None
        assert policy.n_retrains == 0
        assert policy.n_failed_retrains == 0

    def test_thread_executor_end_to_end(self, online_trace):
        """Default (real thread) trainer: drain at end, then close."""
        cache = online_trace.footprint() // 8
        policy = LFOOnline(
            cache, window=1000, gbdt_params=FAST_PARAMS, n_gaps=5,
            label_config=OptLabelConfig(mode="segmented", segment_length=250),
            background=True,
        )
        simulate(online_trace, policy)
        policy.finish_training()
        policy.close()
        assert policy.trainer.training_pending is False
        assert policy.n_retrains >= 1
        assert policy.model is not None
        closed = policy.n_retrains + policy.n_skipped_retrains
        assert closed == len(online_trace) // 1000


AGREEMENT_GAUGES = (
    "online.opt_agreement", "online.opt_false_admit", "online.opt_false_reject",
)


def agreement_gauges(registry):
    gauges = registry.to_dict()["gauges"]
    return {name: gauges[name] for name in AGREEMENT_GAUGES if name in gauges}


class TestOptAgreement:
    """The deployed model scored against each window's OPT labels."""

    def _run(self, deployed):
        labels = np.array([1, 1, 0, 0, 1, 0, 1, 0], dtype=bool)
        # Column 0 is the stub model's likelihood: admit, reject, admit,
        # reject, admit, reject, admit, reject at its 0.5 cutoff.  Rows 1
        # (a false reject) and 2 (a false admit) disagree with OPT.
        features = np.array([
            [0.9], [0.2], [0.7], [0.1], [0.8], [0.3], [0.6], [0.4],
        ])
        requests = [Request(float(i), i, 10) for i in range(8)]
        hand_labels = SimpleNamespace(compute=lambda window, size: labels)
        job = LabelFitJob(100, label_config=hand_labels,
                          min_positive_labels=100)  # publish, fit nothing
        registry = MetricsRegistry()
        with use_registry(registry):
            model, _ = _run_job(
                job, requests, features, "W[1]", deployed,
                threading.get_native_id(),
            )
        assert model is None
        return registry

    def test_agreement_equals_the_hand_count(self):
        stub = SimpleNamespace(likelihood=lambda rows: rows[:, 0], cutoff=0.5)
        registry = self._run(stub)
        assert agreement_gauges(registry) == {
            "online.opt_agreement": 6 / 8,
            "online.opt_false_admit": 1 / 8,
            "online.opt_false_reject": 1 / 8,
        }
        assert registry.to_dict()["spans"]["online.agreement"]["count"] == 1

    def test_a_cold_window_publishes_nothing(self):
        registry = self._run(None)
        assert agreement_gauges(registry) == {}
        assert "online.agreement" not in registry.to_dict()["spans"]

    def test_split_sums_to_the_disagreement(self, online_trace):
        registry = MetricsRegistry()
        policy = LFOOnline(
            online_trace.footprint() // 8, window=1000,
            gbdt_params=FAST_PARAMS, n_gaps=5,
        )
        with use_registry(registry):
            for request in online_trace[:1000]:
                policy.on_request(request)
            assert agreement_gauges(registry) == {}  # W[0] ran cold
            for request in online_trace[1000:2000]:
                policy.on_request(request)
        gauges = agreement_gauges(registry)
        assert 0.5 < gauges["online.opt_agreement"] <= 1.0
        assert gauges["online.opt_false_admit"] + gauges[
            "online.opt_false_reject"
        ] == pytest.approx(1.0 - gauges["online.opt_agreement"])

    def test_a_thread_trainer_window_publishes(self, online_trace):
        registry = MetricsRegistry()
        policy = LFOOnline(
            online_trace.footprint() // 8, window=500,
            gbdt_params=FAST_PARAMS, n_gaps=5, background=True,
        )
        with use_registry(registry):
            for request in online_trace[:500]:
                policy.on_request(request)
            policy.finish_training()  # W[0]'s model is now deployed
            for request in online_trace[500:1000]:
                policy.on_request(request)
            policy.finish_training()
            policy.close()
        assert policy.n_retrains == 2
        assert set(agreement_gauges(registry)) == set(AGREEMENT_GAUGES)

    def test_reset_forgets_the_deployed_model(self, online_trace):
        policy = LFOOnline(
            online_trace.footprint() // 8, window=1000,
            gbdt_params=FAST_PARAMS, n_gaps=5,
        )
        for request in online_trace[:1000]:
            policy.on_request(request)
        assert policy.trainer._model is policy.model is not None
        policy.reset()
        assert policy.trainer._model is None

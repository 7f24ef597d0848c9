"""The training supervisor on its own: a stub job, no OPT, no GBDT.

``WindowTrainer`` is driven the way every serving path drives it — poll,
record, close the window when it fills — with a job that returns its
window's name as the "model" and an ``install`` that appends to a list.
"""

import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import LabelFitJob, WindowTrainer
from repro.core.trainer import _run_job
from repro.gbdt import GBDTParams
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    SimulatedTrainerExecutor,
    use_fault_plan,
)
from repro.trace import Request

WINDOW = 40
REQUEST = Request(0.0, 1, 10)
ROW = np.zeros(3)


def name_job(_requests, _features, name):
    return name


def make(installs, **kwargs):
    return WindowTrainer(WINDOW, name_job, installs.append, **kwargs)


def drive(trainer, n_requests):
    for _ in range(n_requests):
        trainer.poll()
        if trainer.record(REQUEST, ROW):
            trainer.close_window()


def crash(**selector):
    return FaultPlan(
        [FaultSpec(site="online.train_window", kind="crash", **selector)]
    )


def hang(**selector):
    return FaultPlan(
        [FaultSpec(site="trainer.submit", kind="hang", **selector)]
    )


class TestOneRoad:
    def test_inline_and_simulated_executor_agree(self):
        """Same installs, same counters: ``background`` moves where the
        job runs and when it is consumed, not what happens to it."""
        runs = []
        for kwargs in (
            {"background": False},
            {"background": True, "executor": SimulatedTrainerExecutor()},
        ):
            installs = []
            trainer = make(installs, retry_backoff=1, **kwargs)
            registry = MetricsRegistry()
            with use_registry(registry), use_fault_plan(crash(at=(1,))):
                with pytest.warns(RuntimeWarning, match="retrain failed"):
                    drive(trainer, 6 * WINDOW + 1)
            counters = registry.to_dict()["counters"]
            assert counters["online.failed_retrains"] == 1
            assert counters["online.model_installs"] == trainer.n_retrains
            stats = trainer.training_stats
            assert stats.pop("last_training_seconds") > 0.0
            runs.append((installs, stats, trainer.resilience_stats))
        # W[1] crashed, W[2] was the one-window backoff.
        assert runs[0][0] == ["W[0]", "W[3]", "W[4]", "W[5]"]
        assert runs[0] == runs[1]

    def test_inline_model_is_live_before_the_next_request(self):
        installs = []
        trainer = make(installs)
        drive(trainer, WINDOW)
        assert installs == ["W[0]"]
        assert trainer.remaining == WINDOW
        assert trainer.last_training_seconds > 0.0

    def test_refused_submit_is_a_counted_failure(self):
        executor = ThreadPoolExecutor(max_workers=1)
        executor.shutdown(wait=True)
        installs = []
        trainer = make(installs, background=True, executor=executor)
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.warns(RuntimeWarning, match="could not submit"):
                drive(trainer, WINDOW)
        counters = registry.to_dict()["counters"]
        assert counters["online.failed_retrains"] == 1
        assert trainer.n_failed_retrains == 1
        assert not trainer.training_pending and installs == []

    def test_private_executor_and_reset_drain(self):
        """``executor=None`` trains on an owned thread; ``reset`` waits
        for the job in flight, consumes it, then clears every counter."""
        installs = []
        trainer = make(installs, background=True)
        drive(trainer, WINDOW + 3)
        trainer.degraded = trainer.training_halted = True
        trainer.n_watchdog_cancels = 3
        trainer.reset()
        assert installs == ["W[0]"]
        assert trainer.n_retrains == 0 and trainer.remaining == WINDOW
        assert not trainer.training_pending
        assert not trainer.degraded and not trainer.training_halted
        assert trainer.resilience_stats["n_watchdog_cancels"] == 0
        trainer.close()
        assert trainer.executor is None


class TestBackoffAndHalt:
    def test_backoff_doubles_to_the_cap(self):
        trainer = make([], retry_backoff=2)
        registry = MetricsRegistry()
        with use_registry(registry), use_fault_plan(crash(every=1)):
            with pytest.warns(RuntimeWarning, match="retrain failed"):
                drive(trainer, 26 * WINDOW)
        # fail, skip 2, fail, skip 4, fail, skip 8, fail, skip 8 (capped).
        assert trainer.n_failed_retrains == 4
        assert trainer.n_backoff_skips == 22
        assert trainer.n_retrains == 0
        snapshot = registry.to_dict()
        assert snapshot["counters"]["resilience.backoff_skips"] == 22
        assert snapshot["gauges"]["resilience.backoff_windows"] == 8.0

    def test_max_train_failures_halts_and_drops_windows(self):
        trainer = make([], max_train_failures=2)
        registry = MetricsRegistry()
        with use_registry(registry), use_fault_plan(crash(every=1)):
            with pytest.warns(RuntimeWarning):
                drive(trainer, 6 * WINDOW)
        assert trainer.training_halted
        assert trainer.n_failed_retrains == 2  # halted windows don't retry
        snapshot = registry.to_dict()
        assert snapshot["counters"]["resilience.training_halts"] == 1
        assert snapshot["counters"]["resilience.halted_window_drops"] == 4
        assert snapshot["gauges"]["resilience.training_halted"] == 1.0

    def test_success_resets_consecutive_failures(self):
        installs = []
        trainer = make(installs, max_train_failures=2)
        with use_fault_plan(crash(at=(0, 2))):
            with pytest.warns(RuntimeWarning):
                drive(trainer, 5 * WINDOW)
        assert not trainer.training_halted
        assert trainer.n_failed_retrains == 2
        assert installs == ["W[1]", "W[3]", "W[4]"]


class TestWatchdog:
    def test_cancels_on_the_request_clock(self):
        pool = SimulatedTrainerExecutor()
        installs = []
        trainer = make(
            installs, background=True, executor=pool, train_deadline=30
        )
        registry = MetricsRegistry()
        with use_registry(registry), use_fault_plan(hang(at=(0,))):
            drive(trainer, WINDOW + 29)
            assert trainer.training_pending
            assert trainer.n_watchdog_cancels == 0
            drive(trainer, 1)  # the 30th poll since the submit
            assert trainer.n_watchdog_cancels == 1
            assert not trainer.training_pending
            drive(trainer, 2 * WINDOW)
        assert installs == ["W[1]", "W[2]"]
        assert trainer.n_failed_retrains == 0  # a cancel is its own count
        assert registry.counter("resilience.watchdog_cancels").value == 1
        assert "resilience.watchdog_cancel" in registry.to_dict()["spans"]

    def test_no_deadline_keeps_waiting_and_drops_windows(self):
        pool = SimulatedTrainerExecutor()
        trainer = make([], background=True, executor=pool)
        with use_fault_plan(hang(at=(0,))):
            drive(trainer, 5 * WINDOW)
        assert trainer.n_watchdog_cancels == 0
        assert trainer.training_pending  # still hung; nothing watched it
        assert trainer.n_skipped_retrains == 4
        assert trainer.finish(timeout=0) is False
        pool.shutdown(cancel_futures=True)
        with pytest.warns(RuntimeWarning, match="retrain failed"):
            assert trainer.finish() is True  # cancelled: consumed, counted
        assert trainer.n_failed_retrains == 1


class TestStaleness:
    def test_engages_after_an_install_and_recovers_on_the_next(self):
        pool = SimulatedTrainerExecutor()
        installs = []
        trainer = make(
            installs, background=True, executor=pool, staleness_limit=2
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            drive(trainer, WINDOW + 1)
            assert installs == ["W[0]"] and not trainer.degraded
            with use_fault_plan(hang(every=1)):
                drive(trainer, WINDOW)
                assert not trainer.degraded  # one stale window: under limit
                drive(trainer, WINDOW)
                assert trainer.degraded
                assert trainer.n_staleness_fallbacks == 1
                assert pool.release_hung() == 1
                drive(trainer, 1)
            assert not trainer.degraded
            assert trainer.n_staleness_recoveries == 1
        snapshot = registry.to_dict()
        assert snapshot["counters"]["resilience.staleness_fallbacks"] == 1
        assert snapshot["counters"]["resilience.staleness_recoveries"] == 1
        assert snapshot["gauges"]["resilience.staleness_fallback_active"] == 0.0
        assert snapshot["gauges"]["online.windows_since_model"] == 2.0
        pool.shutdown(cancel_futures=True)

    def test_cold_start_is_exempt(self):
        # No model has ever been installed: closing windows without a
        # successful retrain must NOT trip the staleness guard.
        trainer = make([], staleness_limit=1)
        with use_fault_plan(crash(every=1)):
            with pytest.warns(RuntimeWarning):
                drive(trainer, 5 * WINDOW)
        assert not trainer.degraded
        assert trainer.n_staleness_fallbacks == 0
        assert trainer.resilience_stats["windows_since_model"] == 5


class TestPublishHook:
    def test_raising_hook_is_counted_and_the_install_stands(self):
        def hook(model):
            if model == "W[1]":
                raise OSError("slab full")

        installs = []
        trainer = make(installs, publish_hook=hook)
        registry = MetricsRegistry()
        with use_registry(registry):
            drive(trainer, 2 * WINDOW)
        assert installs == ["W[0]", "W[1]"]
        assert trainer.n_retrains == 2 and trainer.n_failed_retrains == 0
        counters = registry.to_dict()["counters"]
        assert counters["online.model_publishes"] == 1
        assert counters["online.publish_failures"] == 1


def test_what_crosses_a_process_boundary_pickles():
    """The ``ProcessPoolExecutor`` claim: everything submitted, and the
    model that comes back, survives a pickle round trip."""
    requests = [Request(float(i), i % 10, 10) for i in range(200)]
    features = np.random.default_rng(0).random((200, 3 + 5))
    job = LabelFitJob(
        60, gbdt_params=GBDTParams(num_iterations=3),
        min_positive_labels=1, n_gaps=5,
    )
    deployed, _ = _run_job(
        job, requests, features, "W[0]", None, threading.get_native_id()
    )
    runner, *args = pickle.loads(
        pickle.dumps((
            _run_job, job, requests, features, "W[1]", deployed,
            threading.get_native_id(),
        ))
    )
    assert args[0] == job
    model, seconds = runner(*args)
    assert seconds > 0.0
    back = pickle.loads(pickle.dumps(model))
    assert np.array_equal(
        back.likelihood(features), model.likelihood(features)
    )

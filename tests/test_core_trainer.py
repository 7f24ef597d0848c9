"""The training supervisor on its own: a stub job, no OPT, no GBDT.

``WindowTrainer`` is driven the way every serving path drives it — poll,
then record, which closes the window when it fills — with a job that
returns its window's name as the "model" and an ``install`` that appends
to a list.
"""

import pickle
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import LabelFitJob, WindowTrainer
from repro.core.trainer import _run_job
from repro.gbdt import GBDTParams
from repro.obs import (
    MetricsRegistry, SloEngine, WindowedRegistry, use_registry,
)
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


def name_job(_requests, _features, name, _deployed):
    return name


def make(installs, **kwargs):
    return WindowTrainer(WINDOW, name_job, installs.append, **kwargs)


def drive(trainer, n_requests):
    for _ in range(n_requests):
        trainer.poll()
        trainer.record([REQUEST], ROW[None])


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

    @pytest.mark.parametrize("background", [False, True])
    def test_the_record_that_fills_the_window_closes_it(self, background):
        """``record`` is the whole boundary: the W-th call runs the job
        once and starts an empty window before it returns."""
        names = []

        def job(requests, features, name, deployed):
            names.append((name, len(requests), features.shape))
            return name

        installs = []
        trainer = WindowTrainer(WINDOW, job, installs.append,
                                background=background)
        for _ in range(WINDOW - 1):
            trainer.record([REQUEST], ROW[None])
        assert names == [] and trainer.remaining == 1
        assert trainer.rows.shape == (WINDOW, len(ROW))
        trainer.record([REQUEST], ROW[None])
        assert trainer.remaining == WINDOW and trainer.rows is None
        if background:
            assert trainer.finish()  # the W-th record submitted the job
        assert names == [("W[0]", WINDOW, (WINDOW, len(ROW)))]
        assert installs == ["W[0]"]
        trainer.close()

    @pytest.mark.parametrize("background", [False, True])
    def test_the_job_gets_the_recorded_rows_as_one_matrix(self, background):
        """One C-contiguous ``(W, d)`` float64 matrix whose rows are what
        each ``record`` saw, though the caller wrote over its row array
        after every call."""
        seen = []

        def job(requests, features, name, deployed):
            seen.append(features)
            return name

        trainer = WindowTrainer(WINDOW, job, [].append, background=background)
        row = np.empty(5)
        for i in range(WINDOW):
            row[:] = np.arange(5) + 10.0 * i
            trainer.record([REQUEST], row[None])
        row[:] = -1.0
        trainer.finish()
        (features,) = seen
        assert features.dtype == np.float64 and features.flags.c_contiguous
        expected = np.arange(5) + 10.0 * np.arange(WINDOW)[:, None]
        assert features.tobytes() == expected.tobytes()
        trainer.close()

    @pytest.mark.parametrize("background", [False, True])
    def test_uneven_blocks_fill_one_window(self, background):
        """Blocks of ``W - 3`` and 3 rows: only the block that fills the
        window submits the job, and the job gets every row in order."""
        seen = []

        def job(requests, features, name, deployed):
            seen.append((list(requests), features.tobytes()))
            return name

        trainer = WindowTrainer(WINDOW, job, [].append, background=background)
        requests = [Request(float(t), t, 10) for t in range(WINDOW)]
        rows = np.arange(3.0 * WINDOW).reshape(WINDOW, 3)
        trainer.record(requests[:-3], rows[:-3])
        assert trainer.remaining == 3 and not trainer.finish()
        assert seen == []
        trainer.record(requests[-3:], rows[-3:])
        assert trainer.remaining == WINDOW and trainer.rows is None
        trainer.finish()
        assert seen == [(requests, rows.tobytes())]
        assert trainer.n_retrains == 1
        trainer.close()

    @pytest.mark.parametrize("open_rows", [0, WINDOW - 3])
    def test_a_block_past_the_window_edge_is_refused(self, open_rows):
        """A block longer than ``remaining`` raises ``ValueError`` before
        anything is buffered: the open window, its matrix and every
        counter are as they were."""
        trainer = make([])
        drive(trainer, open_rows)
        requests, buffer = list(trainer.requests), trainer.rows
        contents = None if buffer is None else buffer.tobytes()
        stats = (trainer.training_stats, trainer.resilience_stats)
        block = trainer.remaining + 1
        with pytest.raises(ValueError):
            trainer.record([REQUEST] * block, np.ones((block, len(ROW))))
        assert trainer.requests == requests and trainer.rows is buffer
        assert contents == (None if buffer is None else buffer.tobytes())
        assert (trainer.training_stats, trainer.resilience_stats) == stats
        assert trainer.remaining == WINDOW - open_rows

    def test_closing_the_window_copies_no_matrix(self):
        """The buffer the rows were written into is the job's matrix, so
        the record that closes the window allocates no second one."""
        window, d = 2000, 53
        jobs = []
        trainer = WindowTrainer(
            window, lambda r, f, n, d: jobs.append(f), [].append
        )
        row = np.ones(d)
        for _ in range(window - 1):
            trainer.record([REQUEST], row[None])
        buffer = trainer.rows
        tracemalloc.start()
        try:
            trainer.record([REQUEST], row[None])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert jobs[0] is buffer and buffer.shape == (window, d)
        assert peak < buffer.nbytes / 4

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

    def test_an_executor_needs_background(self):
        """An inline trainer would train on the caller's thread and leave
        the pool it was given idle, without a word."""
        with pytest.raises(ValueError, match="background=True"):
            make([], executor=SimulatedTrainerExecutor())

    def test_private_executor_and_reset_drain(self):
        """``executor=None`` trains on an owned thread; ``reset`` waits
        for the job in flight, consumes it, then clears every counter."""
        installs = []
        trainer = make(installs, background=True)
        drive(trainer, WINDOW + 3)
        trainer.degraded = True
        trainer.n_watchdog_cancels = 3
        trainer.reset()
        assert installs == ["W[0]"]
        assert trainer.n_retrains == 0 and trainer.remaining == WINDOW
        assert not trainer.training_pending
        assert not trainer.degraded
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

    def test_success_resets_consecutive_failures(self):
        """The second failure follows a success, so it backs off one
        window, not two: jobs 0 and 2 crash, W[1] and W[4] are skipped."""
        installs = []
        trainer = make(installs, retry_backoff=1)
        with use_fault_plan(crash(at=(0, 2))):
            with pytest.warns(RuntimeWarning):
                drive(trainer, 6 * WINDOW)
        assert trainer.n_failed_retrains == 2
        assert trainer.n_backoff_skips == 2
        assert trainer.consecutive_failures == 0
        assert installs == ["W[2]", "W[5]"]

    @pytest.mark.parametrize("retry_backoff", [0, 1])
    def test_a_crash_loop_breaches_train_to_install(self, retry_backoff):
        """Every job raises.  Retraining never gives up, and the verdict
        sees it through the lag: telemetry window ``i`` (one per training
        window here) reads ``windows_since_model == i + 1``, so the
        default spec's ``train_to_install`` (≤ 8, two bad windows of
        twenty allowed) is bad from window 8 and breaches in window 10,
        with or without backoff."""
        trainer = make([], retry_backoff=retry_backoff)
        registry = WindowedRegistry(every_requests=WINDOW)
        engine = SloEngine().attach(registry)
        breached = []
        registry.on_close(
            lambda snapshot: breached.append(snapshot.index)
            if not engine.ok else None
        )
        with use_registry(registry), use_fault_plan(crash(every=1)):
            with pytest.warns(RuntimeWarning, match="retrain failed"):
                for _ in range(12):
                    drive(trainer, WINDOW)
                    registry.roll()
        assert trainer.n_retrains == 0 and trainer.n_failed_retrains > 0
        assert breached[0] == 10
        verdict = engine.verdict()["objectives"]
        assert verdict["train_to_install"]["violations"] == 4  # 8 .. 11
        assert verdict["train_to_install"]["last_value"] == 12.0
        assert [name for name, d in verdict.items() if not d["ok"]] == [
            "train_to_install"
        ]


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

    def test_an_inline_trainer_parks_a_hung_job_for_the_watchdog(self):
        """``background=False`` under a ``trainer.submit`` hang: the job
        parks in the trainer's own executor, the next window is dropped
        as busy, the deadline cancels the job, and ``close`` / ``reset``
        run what is still parked instead of waiting on it forever."""
        installs = []
        trainer = make(installs, train_deadline=WINDOW + 10)
        with use_fault_plan(hang(at=(0, 1, 2))):
            drive(trainer, WINDOW)
            assert trainer.training_pending and installs == []
            drive(trainer, WINDOW)
            assert trainer.n_skipped_retrains == 1
            drive(trainer, 10)  # the deadline's poll since the submit
            assert trainer.n_watchdog_cancels == 1
            assert not trainer.training_pending
            drive(trainer, WINDOW - 10)  # W[2] parks too
            assert trainer.training_pending
            trainer.close()
            assert installs == ["W[2]"] and not trainer.training_pending
            drive(trainer, WINDOW)  # W[3] parks
            trainer.reset()
        assert installs == ["W[2]", "W[3]"]
        assert trainer.n_retrains == 0 and not trainer.training_pending

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


def test_what_crosses_a_process_boundary_pickles():
    """The ``ProcessPoolExecutor`` claim: everything submitted, and the
    model that comes back, survives a pickle round trip."""
    requests = [Request(float(i), i % 10, 10) for i in range(200)]
    features = np.random.default_rng(0).random((200, 3 + 5))
    job = LabelFitJob(
        60, gbdt_params=GBDTParams(num_iterations=3),
        min_positive_labels=1,
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
    # One node table crosses: the predictor is the classifier's own, not
    # a second copy or a recompile.
    assert back.predictor is back.classifier.compiled()
    assert np.array_equal(
        back.likelihood(features), model.likelihood(features)
    )

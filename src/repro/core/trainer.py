"""The training loop of the paper's Figure 2, as one supervisor.

Record window ``W[t]``, hand it to a training job, install the model the
job returns, serve ``W[t+1]`` with it.  :class:`WindowTrainer` owns the
window buffer and everything that can happen between "the window closed"
and "a model is live" — and nothing about caching: the *job* (label with
OPT and fit, for LFO) and the *install* target (a policy's model slot, a
cluster's shards) are the caller's.  :class:`repro.core.LFOOnline`
composes one with an :class:`~repro.core.LFOCache`;
:class:`repro.cluster.ClusterScorer` drives a bare one in the router.

**One road.**  Every closed window becomes ``job(requests, features,
name, deployed) -> model | None``, ``deployed`` being the model that
served it (None on a cold window), submitted to an executor; every
resulting future is consumed by :meth:`WindowTrainer._consume`; every
failure — a job that raised, a future that was cancelled, a submit the
executor refused — goes through :meth:`WindowTrainer._failed` (counted,
logged with the traceback, warned) into the consecutive-failure state
machine.  ``background=False`` submits to the trainer's own
:class:`~repro.resilience.SimulatedTrainerExecutor`, which runs the job
inside ``submit``, and consumes it before the
:meth:`~WindowTrainer.record` that filled the window returns, so the
model is live for the very next request; ``background=True`` leaves the
future pending and :meth:`~WindowTrainer.poll` installs it (an O(1)
swap) on the first request after it completes.  A job a
``trainer.submit`` hang parks stays pending in either mode.  A busy
trainer or a failed job never blocks or breaks the request path: the
window is dropped (``n_skipped_retrains``) or the failure recorded
(``n_failed_retrains``) and serving continues on the current model — the
paper's Section 4 warning that "training tasks [must] not interfere with
the request traffic", stated as a contract.

**Graceful degradation** (drilled by :mod:`repro.resilience` and the
``bench_ext_fault_matrix`` benchmark):

* **watchdog** — ``train_deadline`` bounds how many *requests* a
  job may stay in flight; past it the job is cancelled (or, if
  already running, abandoned) and counted as a failure.  The deadline is
  logical time (one tick per :meth:`~WindowTrainer.poll`), not wall
  clock, so drills replay deterministically;
* **backoff** — ``retry_backoff`` skips a doubling number of windows
  (capped at 8) after consecutive failures instead of re-failing every
  boundary, so a crash-looping trainer stops burning a job per window;
* **staleness guard** — after ``staleness_limit`` windows without a
  fresh install, :attr:`~WindowTrainer.degraded` turns on until the next
  successful install.  What "degraded" means is the caller's business
  (``LFOOnline`` switches admission and eviction to LRU).

Every transition is loud: ``online.*`` / ``resilience.*`` counters and
gauges plus span-tree events on the active :mod:`repro.obs` registry,
and the ``logging.getLogger("repro.online")`` channel.  The three
training-posture gauges the ``staleness`` SLO objective reads
(``online.windows_since_model``, ``online.consecutive_failures``,
``online.last_train_seconds``) are published at every window close.
"""

from __future__ import annotations

import logging
import threading
import warnings
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Executor,
    Future,
    ThreadPoolExecutor,
)
from typing import Any, Callable, Sequence

import numpy as np

from .._native import reservation
from ..obs import get_registry
from ..resilience.faults import get_fault_plan
from ..resilience.harness import SimulatedTrainerExecutor
from ..trace import Request

__all__ = ["WindowTrainer"]

#: Production log channel for the retraining loop: dropped windows, failed
#: or unsubmittable training jobs (with tracebacks via ``exc_info``).
logger = logging.getLogger("repro.online")

#: Exponential backoff never skips more than this many windows in a row —
#: past it the trainer keeps probing at a fixed, bounded cadence.
_MAX_BACKOFF_WINDOWS = 8

#: ``job(requests, features, window_name, deployed) -> model | None``,
#: ``deployed`` being the model that served the window (None on a cold
#: window).  Must pickle (a module-level function or a dataclass instance,
#: never a closure) so a :class:`~concurrent.futures.ProcessPoolExecutor`
#: can run it; ``None`` means "this window is not worth a model" and is
#: not a failure.
TrainingJob = Callable[[list[Request], np.ndarray, str, Any], Any]


def _run_job(
    job: TrainingJob, requests: list[Request], features: np.ndarray, name: str,
    deployed: Any, submitter: int,
) -> tuple[Any, float]:
    """Run one training job wherever the executor put it — beside
    ``submitter``, the serving thread, leaving that thread its core.

    Returns ``(model, seconds)``; the seconds come from the
    ``online.train_window`` span, which also aggregates into the active
    registry (a no-op in process-pool workers, whose registry defaults to
    ``NullRegistry``).

    Fault drills: an installed :class:`repro.resilience.FaultPlan` with
    an ``online.train_window`` spec crashes or delays the job here, before
    any real work — exercising the failure handling, watchdog, backoff
    and staleness machinery.  (Like the registry, the plan is process-wide
    state and therefore invisible to process-pool workers; use thread or
    inline executors for trainer drills.)
    """
    plan = get_fault_plan()
    if plan is not None:
        plan.inject("online.train_window")
    reservation.cores = int(threading.get_native_id() != submitter)
    with get_registry().span("online.train_window") as span:
        model = job(requests, features, name, deployed)
    return model, span.elapsed


class WindowTrainer:
    """Window buffer plus trainer supervisor: submit → wait → install.

    The buffer is one ``(window, d)`` float64 matrix, allocated at a
    window's first :meth:`record` (``d`` is its rows' width).  Each
    ``record`` copies its block of rows in; the full matrix is the job's
    ``features`` as it stands, and the next window starts a new one.

    Args:
        window: requests per training window ``W[t]``.
        job: the :data:`TrainingJob` run on each closed window.
        install: called with each trained model on the request thread —
            the atomic swap that makes it live.  Not guarded: an install
            that raises is a bug in the serving path, not a training
            failure.
        background: False runs each job inside the :meth:`record` that
            filled its window, on the trainer's own
            :class:`~repro.resilience.SimulatedTrainerExecutor`;
            True submits it to ``executor`` and lets :meth:`poll` pick
            the result up.
        executor: the trainer used in background mode (``ValueError``
            without ``background=True``: an inline trainer would ignore
            it).  ``None`` lazily creates a private single-worker
            :class:`ThreadPoolExecutor`; pass a
            :class:`~concurrent.futures.ProcessPoolExecutor` to keep
            training off the GIL entirely (the submitted arguments
            and the returned model pickle cleanly), or a
            :class:`repro.resilience.SimulatedTrainerExecutor` for
            deterministic fault drills.
        train_deadline: watchdog deadline in requests (None = off).
        staleness_limit: closed windows without an install before
            :attr:`degraded` turns on (None = off).  Only an installed
            model can go stale: the guard stays off until the first one.
        retry_backoff: windows skipped after a failure, doubling per
            consecutive failure up to 8 (0 = retry at the next boundary).

    Counters (bundled by :attr:`training_stats`):

    * ``n_retrains`` — models actually trained and installed;
    * ``n_skipped_retrains`` — windows dropped because the trainer was busy;
    * ``n_failed_retrains`` — jobs that raised, were cancelled, or could
      not be submitted (current model kept);
    * ``last_training_seconds`` — duration of the latest job;
    * ``training_pending`` — True while a job is in flight (a parked
      one included).

    Degradation state (bundled by :attr:`resilience_stats`, mirrored as
    ``resilience.*`` metrics):

    * ``n_watchdog_cancels`` — jobs cancelled/abandoned past the deadline;
    * ``n_backoff_skips`` — windows skipped while backing off;
    * ``n_staleness_fallbacks`` / ``n_staleness_recoveries`` — staleness
      engagements and the recoveries that ended them;
    * ``consecutive_failures`` / ``windows_since_model``;
    * ``degraded`` — the current mode flag.
    """

    def __init__(
        self,
        window: int,
        job: TrainingJob,
        install: Callable[[Any], None],
        background: bool = False,
        executor: Executor | None = None,
        train_deadline: int | None = None,
        staleness_limit: int | None = None,
        retry_backoff: int = 0,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if train_deadline is not None and train_deadline <= 0:
            raise ValueError("train_deadline must be positive (in requests)")
        if staleness_limit is not None and staleness_limit <= 0:
            raise ValueError("staleness_limit must be positive (in windows)")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if executor is not None and not background:
            raise ValueError("an executor trains in the background: "
                             "pass background=True with it")
        self.window = window
        self.job = job
        self.install = install
        self.background = background
        self.executor = executor if background else SimulatedTrainerExecutor()
        self._owns_executor = False
        self.train_deadline = train_deadline
        self.staleness_limit = staleness_limit
        self.retry_backoff = retry_backoff
        self._clear()

    def _clear(self) -> None:
        """Constructed state: empty buffer, zero counters, flags off."""
        #: The open window: served requests, and the ``(window, d)``
        #: matrix whose first ``len(requests)`` rows are the feature rows
        #: each was scored with (None until the window's first record).
        self.requests: list[Request] = []
        self.rows: np.ndarray | None = None
        self.n_retrains = 0
        self.n_skipped_retrains = 0
        self.n_failed_retrains = 0
        self.n_watchdog_cancels = 0
        self.n_backoff_skips = 0
        self.n_staleness_fallbacks = 0
        self.n_staleness_recoveries = 0
        self.last_training_seconds = 0.0
        self.consecutive_failures = 0
        self.windows_since_model = 0
        #: True while the installed model is too stale to trust.
        self.degraded = False
        self._pending: Future | None = None
        self._pending_since = 0
        self._clock = 0  # polls so far: the watchdog's logical time
        self._windows_closed = 0
        self._backoff_remaining = 0
        #: The model ``install`` last received: what served the window
        #: being closed, handed to its job as ``deployed``.
        self._model: Any = None

    # -- status ----------------------------------------------------------------

    @property
    def training_pending(self) -> bool:
        """True while a training job is in flight."""
        return self._pending is not None and not self._pending.done()

    @property
    def training_stats(self) -> dict[str, float | int | bool]:
        """The retraining counters as one dict (surfaced by ``simulate``)."""
        return {
            "n_retrains": self.n_retrains,
            "n_skipped_retrains": self.n_skipped_retrains,
            "n_failed_retrains": self.n_failed_retrains,
            "last_training_seconds": self.last_training_seconds,
            "training_pending": self.training_pending,
        }

    @property
    def resilience_stats(self) -> dict[str, float | int | bool]:
        """Degradation counters/flags as one dict (``SimResult.resilience``)."""
        return {
            "n_watchdog_cancels": self.n_watchdog_cancels,
            "n_backoff_skips": self.n_backoff_skips,
            "n_staleness_fallbacks": self.n_staleness_fallbacks,
            "n_staleness_recoveries": self.n_staleness_recoveries,
            "consecutive_failures": self.consecutive_failures,
            "windows_since_model": self.windows_since_model,
            "degraded": self.degraded,
        }

    @property
    def remaining(self) -> int:
        """Requests left before the open window is full: the longest
        block :meth:`record` takes."""
        return self.window - len(self.requests)

    # -- request path ----------------------------------------------------------

    def poll(self) -> None:
        """Advance the watchdog clock one request and poll the trainer.

        Installs a completed model or cancels a job past its
        ``train_deadline``.  Must run exactly once per request, *before*
        the request is scored, so an install lands ahead of the request
        it precedes on every serving path.
        """
        self._clock += 1
        pending = self._pending
        if pending is not None:
            if pending.done():
                self._consume(pending)
            elif (
                self.train_deadline is not None
                and self._clock - self._pending_since >= self.train_deadline
            ):
                self._watchdog_cancel(pending)

    def record(self, requests: Sequence[Request], rows: np.ndarray) -> None:
        """Buffer a block of served requests and the ``(len(requests), d)``
        rows they were actually scored with — training must see exactly
        what serving saw; the rows are copied, so the caller may reuse
        its array.  The block must fit in the open window
        (:attr:`remaining`): a longer one is refused with ``ValueError``
        by the slice assignment, before anything is buffered.  A full
        window is handed to the job and an empty one started before this
        returns.
        """
        n = len(self.requests)
        buffer = self.rows
        if buffer is None:
            buffer = np.empty((self.window, rows.shape[1]))
        buffer[n:n + len(requests)] = rows
        self.rows = buffer
        self.requests.extend(requests)
        if len(self.requests) < self.window:
            return
        registry = get_registry()
        with registry.span("online.window_close"):
            self._submit_window(registry)
            self._check_staleness(registry)
            registry.gauge("online.windows_since_model").set(
                float(self.windows_since_model)
            )
            registry.gauge("online.consecutive_failures").set(
                float(self.consecutive_failures)
            )
            registry.gauge("online.last_train_seconds").set(
                self.last_training_seconds
            )

    def finish(self, timeout: float | None = None) -> bool:
        """Wait for an in-flight job and consume it.

        Useful at end-of-trace (the final window's model would otherwise
        only land on the next request) and in tests.  An inline trainer
        first runs what a ``trainer.submit`` hang parked in its own
        executor (a watchdog-cancelled job stays cancelled), so neither
        this wait nor :meth:`close` / :meth:`reset` outlasts it.  Returns
        True when a pending job was drained (completed, failed, or
        cancelled) within ``timeout`` seconds; False when nothing was
        pending or the job is still running at the deadline (it stays
        pending and can be drained later).
        """
        if not self.background:
            self.executor.release_hung()
        pending = self._pending
        if pending is None:
            return False
        try:
            pending.exception(timeout)  # waits; doesn't raise job errors
        except TimeoutError:
            logger.debug(
                "finish timed out after %s s; job still pending", timeout
            )
            return False
        except CancelledError:
            logger.debug("finish found a cancelled job; consuming it")
        self._consume(pending)
        return True

    def close(self) -> None:
        """Drain pending training and release a privately owned executor."""
        self.finish()
        if self._owns_executor:
            self.executor.shutdown(wait=True)
            self.executor = None
            self._owns_executor = False

    def reset(self) -> None:
        """Drain a pending job, then return to the constructed state."""
        self.finish()
        self._clear()

    # -- the one road ----------------------------------------------------------

    def _submit_window(self, registry) -> None:
        requests, self.requests = self.requests, []
        features, self.rows = self.rows, None
        name = f"W[{self._windows_closed}]"
        self._windows_closed += 1
        self.windows_since_model += 1

        if self._backoff_remaining > 0:
            self._backoff_remaining -= 1
            self.n_backoff_skips += 1
            registry.counter("resilience.backoff_skips").inc()
            registry.event("resilience.backoff_skip")
            logger.info(
                "retrain backoff: dropping window %s "
                "(%d more window(s) to skip)",
                name, self._backoff_remaining,
            )
            return

        pending = self._pending
        if pending is not None:
            if not pending.done():
                # Trainer still busy: drop this window, keep serving on
                # the current model rather than queueing unbounded work.
                self.n_skipped_retrains += 1
                registry.counter("online.skipped_retrains").inc()
                logger.info(
                    "trainer busy; dropping window %s (%d requests, "
                    "%d windows dropped so far)",
                    name, len(requests), self.n_skipped_retrains,
                )
                return
            self._consume(pending)

        if self.executor is None:
            self.executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="lfo-trainer"
            )
            self._owns_executor = True
        # Snapshots: the worker must not reach back into self.
        job, deployed = self.job, self._model
        try:
            future = self.executor.submit(
                _run_job, job, requests, features, name, deployed,
                threading.get_native_id(),
            )
        # The two submit-time failures (shut-down executor, broken pool);
        # neither must ever break serving.  Loud inside ``_failed``.
        # lint: ignore-next-line[rob-silent-degrade]
        except (RuntimeError, BrokenExecutor) as exc:
            self._failed(f"could not submit retrain for window {name}", exc)
            return
        self._pending = future
        self._pending_since = self._clock
        if not self.background and future.done():
            self._consume(future)

    def _consume(self, future: Future) -> None:
        """Consume the finished pending future; install on success."""
        self._pending = None
        error = CancelledError() if future.cancelled() else future.exception()
        if isinstance(error, Exception):
            # Training jobs can raise anything (labeling, fitting, pickling
            # in process pools); all of it is absorbed, none of it quietly.
            self._failed("retrain failed", error)
            return
        # Re-raises what is left: an interrupt or exit the executor
        # captured must reach the caller, not be counted.
        model, self.last_training_seconds = future.result()
        if model is None:
            return
        registry = get_registry()
        with registry.span("online.model_install"):
            self.install(model)
        self._model = model
        self.n_retrains += 1
        registry.counter("online.model_installs").inc()
        self._note_success(registry)

    def _failed(self, what: str, exc: Exception) -> None:
        """The one failure sink: count, log with traceback, warn, degrade."""
        self.n_failed_retrains += 1
        registry = get_registry()
        registry.counter("online.failed_retrains").inc()
        logger.warning(
            "%s (%s); keeping current model",
            what, type(exc).__name__, exc_info=exc,
        )
        warnings.warn(
            f"{what} ({exc!r}); keeping current model",
            RuntimeWarning,
            stacklevel=2,
        )
        self._note_failure(registry)

    # -- graceful degradation --------------------------------------------------

    def _watchdog_cancel(self, future: Future) -> None:
        """Abandon a training job that outlived its request-count deadline."""
        self._pending = None
        cancelled = future.cancel()
        self.n_watchdog_cancels += 1
        registry = get_registry()
        registry.counter("resilience.watchdog_cancels").inc()
        registry.event("resilience.watchdog_cancel")
        logger.warning(
            "retrain exceeded its deadline (%s requests); %s; "
            "keeping current model",
            self.train_deadline,
            "job cancelled" if cancelled else "job abandoned (already running)",
        )
        self._note_failure(registry)

    def _note_failure(self, registry) -> None:
        """Advance the consecutive-failure state machine: back off."""
        self.consecutive_failures += 1
        if self.retry_backoff > 0:
            backoff = min(
                self.retry_backoff * 2 ** (self.consecutive_failures - 1),
                _MAX_BACKOFF_WINDOWS,
            )
            self._backoff_remaining = backoff
            registry.gauge("resilience.backoff_windows").set(float(backoff))
            logger.info(
                "retrain backoff set to %d window(s) after %d consecutive "
                "failure(s)",
                backoff, self.consecutive_failures,
            )

    def _note_success(self, registry) -> None:
        """A fresh model landed: clear failure state, leave degraded mode."""
        self.consecutive_failures = 0
        self._backoff_remaining = 0
        self.windows_since_model = 0
        registry.gauge("resilience.backoff_windows").set(0.0)
        if self.degraded:
            self.degraded = False
            self.n_staleness_recoveries += 1
            registry.counter("resilience.staleness_recoveries").inc()
            registry.gauge("resilience.staleness_fallback_active").set(0.0)
            registry.event("resilience.staleness_recovery")
            logger.info("fresh model installed; leaving degraded mode")

    def _check_staleness(self, registry) -> None:
        """Turn ``degraded`` on once the model has missed too many windows."""
        if (
            self.staleness_limit is None
            or self.degraded
            or self._model is None
            or self.windows_since_model < self.staleness_limit
        ):
            return
        self.degraded = True
        self.n_staleness_fallbacks += 1
        registry.counter("resilience.staleness_fallbacks").inc()
        registry.gauge("resilience.staleness_fallback_active").set(1.0)
        registry.event("resilience.staleness_fallback")
        logger.warning(
            "model stale for %d window(s) without a successful retrain; "
            "degrading to the fallback",
            self.windows_since_model,
        )

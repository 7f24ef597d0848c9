"""The training loop of the paper's Figure 2, as one supervisor.

Record window ``W[t]``, hand it to a training job, install the model the
job returns, serve ``W[t+1]`` with it.  :class:`WindowTrainer` owns the
window buffer and everything that can happen between "the window closed"
and "a model is live" — and nothing about caching: the *job* (label with
OPT and fit, for LFO) and the *install* target (a policy's model slot, a
cluster's shared slab) are the caller's.  :class:`repro.core.LFOOnline`
composes one with an :class:`~repro.core.LFOCache`;
:class:`repro.cluster.ClusterScorer` drives a bare one in the router.

**One road.**  Every closed window becomes ``job(requests, features,
name) -> model | None`` submitted to an executor, run with the model it
was served by as :data:`deployed_model`; every resulting future
is consumed by :meth:`WindowTrainer._consume`; every failure — a job that
raised, a future that was cancelled, a submit the executor refused —
goes through :meth:`WindowTrainer._failed` (counted, logged with the
traceback, warned) into the consecutive-failure state machine.
``background=False`` runs the job on the caller's thread and consumes it
before :meth:`~WindowTrainer.close_window` returns, so the model is live
for the very next request; ``background=True`` leaves the future pending
and :meth:`~WindowTrainer.poll` installs it (an O(1) swap) on the first
request after it completes.  A still-busy trainer or a failed job never
blocks or breaks the request path: the window is dropped
(``n_skipped_retrains``) or the failure recorded (``n_failed_retrains``)
and serving continues on the current model — the paper's Section 4
warning that "training tasks [must] not interfere with the request
traffic", stated as a contract.

**Graceful degradation** (drilled by :mod:`repro.resilience` and the
``bench_ext_fault_matrix`` benchmark):

* **watchdog** — ``train_deadline`` bounds how many *requests* a
  background job may stay in flight; past it the job is cancelled (or, if
  already running, abandoned) and counted as a failure.  The deadline is
  logical time (one tick per :meth:`~WindowTrainer.poll`), not wall
  clock, so drills replay deterministically;
* **backoff** — ``retry_backoff`` skips a doubling number of windows
  after consecutive failures instead of re-failing every boundary;
* **bounded retries** — ``max_train_failures`` halts retraining for good
  after that many consecutive failures (a crash-looping trainer should
  stop burning CPU);
* **staleness guard** — after ``staleness_limit`` windows without a
  fresh install, :attr:`~WindowTrainer.degraded` turns on until the next
  successful install.  What "degraded" means is the caller's business
  (``LFOOnline`` switches admission to its heuristic ``fallback``).

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
from contextvars import ContextVar
from typing import Any, Callable

import numpy as np

from .._native import reservation
from ..obs import get_registry
from ..resilience.faults import get_fault_plan
from ..trace import Request

__all__ = ["WindowTrainer", "deployed_model"]

#: Production log channel for the retraining loop: dropped windows, failed
#: or unsubmittable training jobs (with tracebacks via ``exc_info``).
logger = logging.getLogger("repro.online")

#: Exponential backoff never skips more than this many windows in a row —
#: past it the trainer keeps probing at a fixed, bounded cadence.
_MAX_BACKOFF_WINDOWS = 8

#: ``job(requests, features, window_name) -> model | None``.  Must pickle
#: (a module-level function or a dataclass instance, never a closure) so a
#: :class:`~concurrent.futures.ProcessPoolExecutor` can run it; ``None``
#: means "this window is not worth a model" and is not a failure.
TrainingJob = Callable[[list[Request], np.ndarray, str], Any]

#: The model the trainer had installed when the running job's window
#: closed (None on a cold window) — set by :func:`_run_job` for the job's
#: duration, like the registry a job reports to, so a job can score its
#: window with what served it.
deployed_model: ContextVar[Any] = ContextVar("deployed_model", default=None)


def _run_job(
    job: TrainingJob, requests: list[Request], features: np.ndarray, name: str,
    deployed: Any, submitter: int,
) -> tuple[Any, float]:
    """Run one training job wherever the executor put it — beside
    ``submitter``, the serving thread, leaving that thread its core.

    ``deployed`` is :data:`deployed_model` while the job runs.  Returns
    ``(model, seconds)``; the seconds come from the
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
    token = deployed_model.set(deployed)
    try:
        with get_registry().span("online.train_window") as span:
            model = job(requests, features, name)
    finally:
        deployed_model.reset(token)
    return model, span.elapsed


class _CallerThreadExecutor(Executor):
    """``background=False``: the job runs inside ``submit``."""

    def submit(
        self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        # Executor contract: capture everything into the future; the
        # consumer counts an Exception and re-raises anything else.
        # lint: ignore-next-line[rob-broad-except, rob-silent-degrade]
        except BaseException as exc:
            future.set_exception(exc)
        return future


class WindowTrainer:
    """Window buffer plus trainer supervisor: submit → wait → install.

    Args:
        window: requests per training window ``W[t]``.
        job: the :data:`TrainingJob` run on each closed window.
        install: called with each trained model on the request thread —
            the atomic swap that makes it live.  Not guarded: an install
            that raises is a bug in the serving path, not a training
            failure.
        background: False runs each job inside :meth:`close_window`;
            True submits it to ``executor`` and lets :meth:`poll` pick
            the result up.
        executor: the trainer used in background mode.  ``None`` lazily
            creates a private single-worker :class:`ThreadPoolExecutor`;
            pass a :class:`~concurrent.futures.ProcessPoolExecutor` to
            keep training off the GIL entirely (the submitted arguments
            and the returned model pickle cleanly), or a
            :class:`repro.resilience.SimulatedTrainerExecutor` for
            deterministic fault drills.
        train_deadline: watchdog deadline in requests (None = off).
        staleness_limit: closed windows without an install before
            :attr:`degraded` turns on (None = off).  Only an installed
            model can go stale: the guard stays off until the first one.
        retry_backoff: windows skipped after a failure, doubling per
            consecutive failure up to 8 (0 = retry at the next boundary).
        max_train_failures: consecutive failures before retraining halts
            for good (None = never).
        publish_hook: called with each freshly *installed* model, right
            after ``install`` — the cluster publish path
            (:meth:`repro.cluster.CacheCluster.publish` writes the
            compiled model into the shared slab here).  A raising hook is
            absorbed loudly (``online.publish_failures``): downstream
            consumers keep the previous generation, the install stands.

    Counters (bundled by :attr:`training_stats`):

    * ``n_retrains`` — models actually trained and installed;
    * ``n_skipped_retrains`` — windows dropped because the trainer was busy;
    * ``n_failed_retrains`` — jobs that raised, were cancelled, or could
      not be submitted (current model kept);
    * ``last_training_seconds`` — duration of the latest job;
    * ``training_pending`` — True while a background job is in flight.

    Degradation state (bundled by :attr:`resilience_stats`, mirrored as
    ``resilience.*`` metrics):

    * ``n_watchdog_cancels`` — jobs cancelled/abandoned past the deadline;
    * ``n_backoff_skips`` — windows skipped while backing off;
    * ``n_staleness_fallbacks`` / ``n_staleness_recoveries`` — staleness
      engagements and the recoveries that ended them;
    * ``consecutive_failures`` / ``windows_since_model``;
    * ``degraded`` / ``training_halted`` — the current mode flags.
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
        max_train_failures: int | None = None,
        publish_hook: Callable[[Any], None] | None = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if train_deadline is not None and train_deadline <= 0:
            raise ValueError("train_deadline must be positive (in requests)")
        if staleness_limit is not None and staleness_limit <= 0:
            raise ValueError("staleness_limit must be positive (in windows)")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if max_train_failures is not None and max_train_failures <= 0:
            raise ValueError("max_train_failures must be positive")
        self.window = window
        self.job = job
        self.install = install
        self.background = background
        self.executor = executor if background else _CallerThreadExecutor()
        self._owns_executor = False
        self.train_deadline = train_deadline
        self.staleness_limit = staleness_limit
        self.retry_backoff = retry_backoff
        self.max_train_failures = max_train_failures
        self.publish_hook = publish_hook
        self._clear()

    def _clear(self) -> None:
        """Constructed state: empty buffer, zero counters, flags off."""
        #: The open window: served requests and the live feature row each
        #: was scored with, in order.
        self.requests: list[Request] = []
        self.features: list[np.ndarray] = []
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
        #: True once ``max_train_failures`` consecutive failures hit.
        self.training_halted = False
        self._pending: Future | None = None
        self._pending_since = 0
        self._clock = 0  # polls so far: the watchdog's logical time
        self._windows_closed = 0
        self._backoff_remaining = 0
        #: The model ``install`` last received: what served the window
        #: being closed, handed to its job as :data:`deployed_model`.
        self._model: Any = None

    # -- status ----------------------------------------------------------------

    @property
    def training_pending(self) -> bool:
        """True while a background training job is in flight."""
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
            "training_halted": self.training_halted,
        }

    @property
    def remaining(self) -> int:
        """Requests left before the open window is full.

        The serving loop caps each speculation batch here so no batch
        straddles a window boundary: the retrain (and any model swap it
        triggers) lands between batches, never under speculated scores.
        """
        return self.window - len(self.requests)

    # -- request path ----------------------------------------------------------

    def poll(self) -> None:
        """Advance the watchdog clock one request and poll the trainer.

        Installs a completed background model or cancels a job past its
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

    def record(self, request: Request, features: np.ndarray) -> bool:
        """Buffer one served request; True when it filled the window.

        ``features`` must be the row the request was actually scored with
        — training must see exactly what serving saw.  The caller answers
        True with :meth:`close_window` (after whatever it wants to do
        with the full buffer first).
        """
        self.requests.append(request)
        self.features.append(features)
        return len(self.requests) >= self.window

    def close_window(self) -> None:
        """Hand the buffered window to the job and start an empty one."""
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
        only land on the next request) and in tests.  Returns True when a
        pending job was drained (completed, failed, or cancelled) within
        ``timeout`` seconds; False when nothing was pending or the job is
        still running at the deadline (it stays pending and can be
        drained later).
        """
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
        if self._owns_executor and self.executor is not None:
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
        rows, self.features = self.features, []
        name = f"W[{self._windows_closed}]"
        self._windows_closed += 1
        self.windows_since_model += 1

        if self.training_halted:
            registry.counter("resilience.halted_window_drops").inc()
            logger.info(
                "training halted after %d consecutive failures; "
                "dropping window %s",
                self.consecutive_failures, name,
            )
            return

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
        features = np.vstack(rows)
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
        if not self.background:
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
        if self.publish_hook is not None:
            try:
                self.publish_hook(model)
                registry.counter("online.model_publishes").inc()
            except Exception as exc:
                # Publishing is off the install path by contract: a
                # failed slab write must never undo the swap that already
                # happened.  Loud — counted and logged with the traceback.
                registry.counter("online.publish_failures").inc()
                logger.warning(
                    "model publish hook failed (%s); downstream consumers "
                    "keep the previous generation",
                    type(exc).__name__, exc_info=exc,
                )

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
            "background retrain exceeded its deadline (%s requests); %s; "
            "keeping current model",
            self.train_deadline,
            "job cancelled" if cancelled else "job abandoned (already running)",
        )
        self._note_failure(registry)

    def _note_failure(self, registry) -> None:
        """Advance the consecutive-failure state machine: halt or back off."""
        self.consecutive_failures += 1
        if (
            self.max_train_failures is not None
            and self.consecutive_failures >= self.max_train_failures
        ):
            if not self.training_halted:
                self.training_halted = True
                registry.counter("resilience.training_halts").inc()
                registry.gauge("resilience.training_halted").set(1.0)
                registry.event("resilience.training_halt")
                logger.error(
                    "halting retraining after %d consecutive failures; "
                    "serving continues without fresh models",
                    self.consecutive_failures,
                )
            return
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

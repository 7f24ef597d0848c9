"""The inline trainer executor, deterministic under fault plans.

An inline :class:`repro.core.WindowTrainer` (``background=False``)
submits every job to a :class:`SimulatedTrainerExecutor` of its own.
Fault drills and benchmarks may pass one to a ``background=True``
trainer too: a worker thread's scheduling makes *which window installs
when* nondeterministic, and this executor replays identically.  A
submission runs on the caller's thread inside ``submit`` unless the
active :class:`~repro.resilience.FaultPlan` says the trainer hangs, in
which case the returned future stays pending.  To the trainer that is
indistinguishable from a deadlocked trainer, which is exactly what the
watchdog exists to catch.

The ``except BaseException`` handler below mirrors the stdlib executor
contract — every outcome, including KeyboardInterrupt, is captured into
the future for the consumer to re-raise — so it swallows no fault; it
carries a line-scoped lint marker.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future
from typing import Any, Callable

from .faults import get_fault_plan

__all__ = ["SimulatedTrainerExecutor"]


class SimulatedTrainerExecutor(Executor):
    """Inline, plan-aware trainer executor.

    * No fault plan (or no matching spec): ``submit`` runs the callable
      immediately and returns an already-resolved future.
    * A ``trainer.submit`` spec of kind ``"hang"``: the call is parked and
      the returned future stays pending.  ``Future.cancel()`` succeeds
      (the job never starts), which is the path the trainer's watchdog
      takes.  :meth:`release_hung` later runs any still-wanted parked
      jobs, modelling a trainer that eventually comes back.
    """

    def __init__(self) -> None:
        self._hung: list[
            tuple[Future, Callable[..., Any], tuple, dict]
        ] = []

    def submit(
        self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future:
        """Run ``fn`` inline — or park it when the plan hangs the trainer."""
        future: Future = Future()
        plan = get_fault_plan()
        spec = plan.should_fire("trainer.submit") if plan is not None else None
        if spec is not None and spec.kind == "hang":
            self._hung.append((future, fn, args, kwargs))
        else:
            _run(future, fn, args, kwargs)
        return future

    @property
    def n_hung(self) -> int:
        """Parked submissions still pending (cancelled ones included)."""
        return len(self._hung)

    def release_hung(self) -> int:
        """Run every parked job whose future was not cancelled meanwhile.

        Returns the number of jobs actually executed — a watchdog-cancelled
        future is dropped silently, exactly like a thread pool discarding a
        cancelled work item.
        """
        released = 0
        while self._hung:
            released += _run(*self._hung.pop(0))
        return released

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Drop parked jobs; inline jobs have already completed."""
        if cancel_futures:
            for future, _fn, _args, _kwargs in self._hung:
                future.cancel()
        self._hung.clear()


def _run(
    future: Future, fn: Callable[..., Any], args: tuple, kwargs: dict
) -> bool:
    """Run ``fn`` into ``future`` unless it was cancelled; True if it ran."""
    if not future.set_running_or_notify_cancel():
        return False
    try:
        future.set_result(fn(*args, **kwargs))
    # Executor contract: capture everything into the future.
    # lint: ignore-next-line[rob-broad-except]
    except BaseException as exc:
        future.set_exception(exc)
    return True

"""Fault injection and graceful-degradation tooling.

Two halves, one goal — proving the caching loop degrades instead of dying:

* :mod:`repro.resilience.faults` — deterministic, declarative fault plans
  (:class:`FaultPlan` / :class:`FaultSpec`) installed process-wide and
  consulted by hooks in ``core.online`` and ``trace.readers``;
* :mod:`repro.resilience.harness` — :class:`SimulatedTrainerExecutor`, an
  inline trainer's executor, which parks the jobs a hang fault names.

The degradation machinery itself (watchdog, backoff, staleness fallback,
tolerant trace reading) lives in the hardened components;
``docs/robustness.md`` is the operations runbook tying fault → metric →
behaviour → recovery together.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "faults": (
        "FAULT_KINDS", "FaultPlan", "FaultSpec", "InjectedFaultError",
        "get_fault_plan", "set_fault_plan", "use_fault_plan",
    ),
    "harness": ("SimulatedTrainerExecutor",),
})

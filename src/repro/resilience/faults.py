"""Deterministic fault injection: declarative, seeded fault plans.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries — *which site*
fails, *how* (crash / hang / latency / corrupt), and *when* (the n-th
occurrence, every k-th, or with a seeded probability).  The plan is
installed process-wide (:func:`set_fault_plan` / :func:`use_fault_plan`,
mirroring ``repro.obs.use_registry``) and consulted by cheap hooks inside
the hardened components; with no plan installed — the default — every hook
is a single ``None`` check.

Known fault sites and the fault kinds they honour:

========================  =======================  ==========================
site                      kinds                    hooked in
========================  =======================  ==========================
``online.train_window``   ``crash``, ``latency``   ``repro.core.trainer``
``trainer.submit``        ``hang``                 every inline trainer's
                                                   executor (:class:`repro.\
resilience.SimulatedTrainerExecutor`)
``trace.read_line``       ``corrupt``              ``repro.trace.readers``
                                                   (selector matches the
                                                   data-line index)
========================  =======================  ==========================

Determinism: occurrence counting is plain arithmetic and probabilistic
selectors draw from one ``numpy`` Generator seeded at construction, so the
same plan over the same run fires identically every time.  Call
:meth:`FaultPlan.reset` to replay a plan from scratch.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence, Union

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "get_fault_plan",
    "set_fault_plan",
    "use_fault_plan",
]

#: The fault kinds a spec may declare.
FAULT_KINDS = ("crash", "hang", "latency", "corrupt")


class InjectedFaultError(RuntimeError):
    """Raised by a fault hook standing in for a real component failure."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site}")
        self.site = site

    def __reduce__(self) -> tuple[type, tuple[str]]:
        # Round-trips through process-pool pickling with the site intact.
        return (type(self), (self.site,))


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: where, how, and on which occurrences.

    Args:
        site: the hook name (see the site table in the module docstring).
        kind: ``"crash"`` raises :class:`InjectedFaultError`, ``"hang"``
            parks the submission for the watchdog (honoured by
            :class:`~repro.resilience.SimulatedTrainerExecutor`),
            ``"latency"`` sleeps ``latency_seconds`` before proceeding,
            ``"corrupt"`` mangles the payload (trace lines).
        at: fire on exactly these 0-based occurrences of the site.
        every: fire on every ``every``-th occurrence (0, every, 2*every...).
        probability: fire each occurrence with this probability, drawn from
            the plan's seeded generator.  ``at``/``every``/``probability``
            are mutually exclusive; with none given the spec always fires.
        max_fires: stop firing after this many hits (None = unbounded).
        latency_seconds: sleep duration for ``kind="latency"``.
    """

    site: str
    kind: str = "crash"
    at: tuple[int, ...] | None = None
    every: int | None = None
    probability: float | None = None
    max_fires: int | None = None
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("fault site must be a non-empty string")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        selectors = [
            s is not None for s in (self.at, self.every, self.probability)
        ]
        if sum(selectors) > 1:
            raise ValueError("at/every/probability are mutually exclusive")
        if self.at is not None:
            object.__setattr__(self, "at", tuple(int(i) for i in self.at))
        if self.every is not None and self.every <= 0:
            raise ValueError("every must be positive")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.max_fires is not None and self.max_fires <= 0:
            raise ValueError("max_fires must be positive")
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")

    def matches(self, occurrence: int, rng: np.random.Generator) -> bool:
        """Whether this spec fires on the given 0-based occurrence."""
        if self.at is not None:
            return occurrence in self.at
        if self.every is not None:
            return occurrence % self.every == 0
        if self.probability is not None:
            return bool(rng.random() < self.probability)
        return True

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe view (``at`` becomes a list)."""
        out = asdict(self)
        if out["at"] is not None:
            out["at"] = list(out["at"])
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultSpec":
        """Inverse of :meth:`to_dict` (also accepts hand-written JSON)."""
        data = dict(payload)
        if data.get("at") is not None:
            data["at"] = tuple(int(i) for i in data["at"])
        return cls(**data)


class FaultPlan:
    """A seeded set of :class:`FaultSpec` entries plus replay state.

    The plan tracks one occurrence counter per site and one fire counter
    per spec; both are plain integers behind a small lock (fault sites sit
    at window/segment granularity, never on the per-request hot path).
    """

    def __init__(
        self,
        faults: Sequence[Union[FaultSpec, dict]],
        seed: int = 0,
    ) -> None:
        self.faults: tuple[FaultSpec, ...] = tuple(
            f if isinstance(f, FaultSpec) else FaultSpec.from_dict(f)
            for f in faults
        )
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._rng = np.random.default_rng(self.seed)
        self._occurrences: dict[str, int] = {}
        self._fired: list[int] = [0] * len(self.faults)

    def reset(self) -> None:
        """Rewind all occurrence/fire state (and the RNG) for a fresh replay."""
        with self._lock:
            self._rng = np.random.default_rng(self.seed)
            self._occurrences = {}
            self._fired = [0] * len(self.faults)

    # -- selection ----------------------------------------------------------

    def _select(self, site: str, occurrence: int) -> FaultSpec | None:
        """First still-armed spec for ``site`` matching ``occurrence``.

        Caller holds the lock.  Matching consumes probability draws, so
        selection order (declaration order) is part of the plan's identity.
        """
        for index, spec in enumerate(self.faults):
            if spec.site != site:
                continue
            if spec.max_fires is not None and self._fired[index] >= spec.max_fires:
                continue
            if spec.matches(occurrence, self._rng):
                self._fired[index] += 1
                return spec
        return None

    def should_fire(self, site: str) -> FaultSpec | None:
        """Advance ``site``'s occurrence counter; return the firing spec."""
        with self._lock:
            occurrence = self._occurrences.get(site, 0)
            self._occurrences[site] = occurrence + 1
            return self._select(site, occurrence)

    # -- enactment helpers (one per fault flavour) --------------------------

    def inject(self, site: str) -> None:
        """Crash/latency hook: raise or sleep when a spec fires at ``site``."""
        spec = self.should_fire(site)
        if spec is None:
            return
        if spec.kind == "crash":
            raise InjectedFaultError(site)
        if spec.kind == "latency":
            time.sleep(spec.latency_seconds)

    def corrupt_line(self, line: str) -> str:
        """Trace-reader hook: mangle the line when a spec fires.

        Occurrence index = data-line index (the reader calls this after
        skipping blanks/comments).  The mangled line is guaranteed
        unparseable: the first field becomes non-numeric.
        """
        spec = self.should_fire("trace.read_line")
        if spec is None or spec.kind != "corrupt":
            return line
        return "!corrupt! " + line

    # -- introspection / serialisation --------------------------------------

    def fires(self) -> dict[str, int]:
        """Total fires so far, aggregated per site."""
        with self._lock:
            out: dict[str, int] = {}
            for spec, count in zip(self.faults, self._fired):
                out[spec.site] = out.get(spec.site, 0) + count
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe view of the declaration (not the replay state)."""
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    def to_json(self, path: Union[str, Path]) -> None:
        """Write the plan declaration as a JSON file."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultPlan":
        """Build a plan from :meth:`to_dict` output / hand-written JSON."""
        return cls(payload.get("faults", []), seed=payload.get("seed", 0))

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "FaultPlan":
        """Load a plan from a JSON file (see ``docs/robustness.md``)."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


# -- process-wide active plan (mirrors repro.obs's registry pattern) ---------

_active_plan: FaultPlan | None = None


def get_fault_plan() -> FaultPlan | None:
    """The currently installed plan, or None (the default: no injection)."""
    return _active_plan


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide; returns the previous plan."""
    global _active_plan
    previous = _active_plan
    _active_plan = plan
    return previous


@contextmanager
def use_fault_plan(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Scoped :func:`set_fault_plan`: install for the block, then restore."""
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)

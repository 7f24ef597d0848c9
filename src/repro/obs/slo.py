"""Declarative SLOs and drift detectors judged over telemetry windows.

The paper's robustness claim is that LFO keeps working *while traffic
changes*, and the serving harness needs a yes/no answer to "is the
policy meeting its objectives *right now*".  This module evaluates a
declarative :class:`SloSpec` against every closed window of a
:class:`~repro.obs.windows.WindowedRegistry`.  Threshold kinds:

* **latency_quantile** — a window quantile of a latency histogram
  (default ``serve.decision_latency_seconds`` — the per-decision budget
  Cold-RL enforces inside NGINX) must stay ≤ ``max_value``;
* **window_bhr** — the window byte hit ratio must stay ≥ ``min_value``;
* **opt_agreement** — ``online.opt_agreement``, the share of the last
  labelled window on which the deployed model decided as OPT did, must
  stay ≥ ``min_value`` (skipped until a warm window has been labelled);
* **staleness** — ``online.windows_since_model`` (train-to-install lag)
  must stay ≤ ``max_value`` windows;
* **training_halted** — the ``resilience.training_halted`` flag must
  stay ≤ ``max_value`` (0: retraining never gave up).

Drift kinds, which carry detector memory from window to window:

* **bhr_drift** — a one-sided Page-Hinkley test over the window BHR; the
  accumulated shortfall must stay ≤ ``max_value`` (λ);
* **score_drift** — the population-stability index between consecutive
  windows of the ``metric`` histogram (``lfo.admission_score``).  A
  score distribution that jumps while the model is fixed means the
  *inputs* moved: covariate shift, visible before BHR sags;
* **feature_drift** — the worst EWMA relative deviation of the
  ``online.feature_*`` arena-summary gauges ``LFOOnline`` publishes.

Every kind is a pure function of the window and its objective's own
state, so a seeded replay violates in the same windows.

Each objective carries an *error budget*: the fraction of windows over a
rolling ``horizon`` that may violate it before the objective is
**breached** (budget 0: one bad window breaches, and the breach clears
once that window ages out of the horizon).  The burn rate is the
fraction of that budget currently consumed (1.0 = fully burned); a
transition into breach raises an ``slo.breach`` event and is reflected
in the ``slo.breached_objectives`` gauge.

Windows with too little signal (fewer than ``min_count`` histogram
observations, no request bytes, a detector still warming up) are
*skipped*, not counted against the budget — an idle window is not an
outage.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from math import log
from pathlib import Path
from typing import Sequence, Union

from .registry import MetricsRegistry, NullRegistry
from .windows import WindowSnapshot, window_bhr

__all__ = [
    "EwmaDetector",
    "PageHinkley",
    "SloObjective",
    "SloSpec",
    "SloEngine",
    "population_stability_index",
]

DECISION_LATENCY_HISTOGRAM = "serve.decision_latency_seconds"
#: Bounds for every per-decision latency histogram: 1µs .. 10ms with 1-2-5
#: steps, fine enough that p99/p999 interpolation stays meaningful for a
#: sub-millisecond decision budget (Cold-RL's deployment constraint).
DECISION_LATENCY_BUCKETS = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2,
)
STALENESS_GAUGE = "online.windows_since_model"
_HALTED_GAUGE = "resilience.training_halted"
_AGREEMENT_GAUGE = "online.opt_agreement"
_SCORE_HISTOGRAM = "lfo.admission_score"
_MODEL_INSTALLS = "online.model_installs"
#: Arena summaries ``LFOOnline`` publishes that describe the *workload*.
#: The tracked-object count is absent: it saturates at the tracker
#: capacity and would self-trigger.
_FEATURE_GAUGES = ("online.feature_recency_mean", "online.feature_cost_mean")

#: Detector constants: Page-Hinkley per-window noise tolerance on BHR,
#: windows that only build a baseline, and the feature EWMA smoothing.
_PH_DELTA = 0.01
_WARMUP = 3
_EWMA_ALPHA = 0.3
#: Probability floor for PSI bins: empty bins would make the log diverge.
_PSI_EPS = 1e-6

_KINDS = (
    "latency_quantile", "window_bhr", "opt_agreement", "staleness",
    "training_halted", "bhr_drift", "score_drift", "feature_drift",
)
#: The kinds judged against a floor (``min_value``) rather than a ceiling.
_FLOOR_KINDS = ("window_bhr", "opt_agreement")


def population_stability_index(
    reference: Sequence[float], live: Sequence[float]
) -> float:
    """PSI between two aligned bucket-count vectors.

    ``sum((p - q) * ln(p / q))`` over the shared buckets, with counts
    normalised to probabilities and floored at ``1e-6``.  By convention
    PSI < 0.1 is stable, 0.1–0.25 moderate shift, > 0.25 major shift.
    """
    if len(reference) != len(live):
        raise ValueError("bucket vectors must be aligned")
    ref_total = float(sum(reference))
    live_total = float(sum(live))
    if ref_total <= 0.0 or live_total <= 0.0:
        return 0.0
    psi = 0.0
    for r, l in zip(reference, live):
        p = max(l / live_total, _PSI_EPS)
        q = max(r / ref_total, _PSI_EPS)
        psi += (p - q) * log(p / q)
    return psi


class EwmaDetector:
    """Exponentially weighted baseline with relative-deviation scores.

    ``update(x)`` returns the relative deviation of ``x`` from the
    baseline *before* folding ``x`` in, so a step change scores against
    the pre-shift history.  The first ``warmup`` updates only build the
    baseline (deviation 0.0).
    """

    def __init__(
        self, alpha: float = _EWMA_ALPHA, warmup: int = _WARMUP
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.warmup = warmup
        self.mean: float | None = None
        self.n = 0

    def update(self, value: float) -> float:
        previous = self.mean
        self.n += 1
        if previous is None:
            self.mean = value
            return 0.0
        self.mean = previous + self.alpha * (value - previous)
        if self.n <= self.warmup:
            return 0.0
        return abs(value - previous) / max(abs(previous), _PSI_EPS)


class PageHinkley:
    """One-sided Page-Hinkley test for a sustained *drop* in the mean.

    Accumulates ``mean_so_far - x_t - delta`` (clamped at zero), where
    ``delta`` absorbs benign noise; ``update`` returns the accumulator,
    and an accumulator above ``lamb`` is an alarm — the series has run
    below its historical mean by more than ``delta`` for long enough to
    integrate to ``lamb``.  The test restarts after an alarm so a single
    regime change raises one alarm, not one per window.
    """

    def __init__(
        self, delta: float = _PH_DELTA, lamb: float = 0.1,
        warmup: int = _WARMUP,
    ) -> None:
        if lamb <= 0.0:
            raise ValueError("lamb must be positive")
        self.delta = delta
        self.lamb = lamb
        self.warmup = warmup
        self.reset()

    def update(self, value: float) -> float:
        self.n += 1
        self._sum += value
        if self.n <= self.warmup:
            return 0.0
        self.cumulative = max(
            0.0, self.cumulative + (self._sum / self.n - value - self.delta)
        )
        statistic = self.cumulative
        if statistic > self.lamb:
            self.reset()
        return statistic

    def reset(self) -> None:
        self.cumulative = 0.0
        self._sum = 0.0
        self.n = 0


@dataclass(frozen=True)
class SloObjective:
    """One objective evaluated per window.

    Attributes:
        name: stable identifier used in verdicts and events.
        kind: one of the module's threshold or drift kinds.
        metric: histogram name for ``latency_quantile`` and
            ``score_drift`` (ignored by the other kinds, which read fixed
            signals).
        quantile: the percentile point for ``latency_quantile``.
        max_value / min_value: the threshold (``window_bhr`` and
            ``opt_agreement`` read ``min_value``, every other kind
            ``max_value``).
        budget: allowed bad-window *fraction* over the engine's horizon.
        min_count: minimum histogram observations for a window to be
            evaluable (``latency_quantile`` and ``score_drift``).
    """

    name: str
    kind: str
    metric: str = DECISION_LATENCY_HISTOGRAM
    quantile: float = 0.99
    max_value: float | None = None
    min_value: float | None = None
    budget: float = 0.1
    min_count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; use {_KINDS}")
        if not 0.0 <= self.budget < 1.0:
            raise ValueError("budget must be a fraction in [0, 1)")
        if self.kind in _FLOOR_KINDS:
            if self.min_value is None:
                raise ValueError(f"{self.kind} objective needs min_value")
        elif self.max_value is None:
            raise ValueError(f"{self.kind} objective needs max_value")
        if self.kind == "latency_quantile" and not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")

    def evaluate(
        self, snapshot: WindowSnapshot, state: "_ObjectiveState | None" = None
    ) -> tuple[bool | None, float]:
        """``(ok, value)`` for one window; ``ok`` is None when the window
        carries too little signal to judge (skipped, not counted).  The
        drift kinds fold their detector memory into ``state``."""
        state = state if state is not None else _ObjectiveState()
        kind = self.kind
        if kind == "latency_quantile":
            if snapshot.histogram_count(self.metric) < self.min_count:
                return None, 0.0
            value = snapshot.quantile(self.metric, self.quantile)
        elif kind in _FLOOR_KINDS:
            value = (
                window_bhr(snapshot) if kind == "window_bhr"
                else snapshot.gauges.get(_AGREEMENT_GAUGE)
            )
            if value is None:
                return None, 0.0
            assert self.min_value is not None
            return value >= self.min_value, value
        elif kind in ("staleness", "training_halted"):
            value = snapshot.gauges.get(
                STALENESS_GAUGE if kind == "staleness" else _HALTED_GAUGE
            )
            if value is None:
                return None, 0.0
        elif kind == "bhr_drift":
            bhr = window_bhr(snapshot)
            if bhr is None:
                return None, 0.0
            if state.page_hinkley is None:
                state.page_hinkley = PageHinkley(lamb=self.max_value)
            value = state.page_hinkley.update(bhr)
        elif kind == "score_drift":
            hist = snapshot.histograms.get(self.metric)
            if hist is None or hist["count"] < self.min_count:
                return None, 0.0
            if snapshot.delta(_MODEL_INSTALLS) > 0:
                # A fresh model landed in this window, so its scores mix
                # two models.  Drop the baseline AND burn one more window:
                # the first full window under a new model is still
                # transient (the feature state it scores against was
                # accumulated for its predecessor), so PSI only compares
                # windows scored by one settled model.
                state.prev_counts = None
                state.burn_in = 1
                return None, 0.0
            if state.burn_in > 0:
                state.burn_in -= 1
                return None, 0.0
            previous, state.prev_counts = state.prev_counts, list(
                hist["counts"]
            )
            if previous is None:
                return None, 0.0
            value = population_stability_index(previous, state.prev_counts)
        else:  # feature_drift
            deviations = [
                state.ewma.setdefault(name, EwmaDetector()).update(
                    snapshot.gauges[name]
                )
                for name in _FEATURE_GAUGES
                if name in snapshot.gauges
            ]
            if not deviations:
                return None, 0.0
            value = max(deviations)
        assert self.max_value is not None
        return value <= self.max_value, value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "quantile": self.quantile,
            "max_value": self.max_value,
            "min_value": self.min_value,
            "budget": self.budget,
            "min_count": self.min_count,
        }


@dataclass(frozen=True)
class SloSpec:
    """A set of objectives plus the rolling horizon they are judged over."""

    objectives: tuple[SloObjective, ...]
    horizon: int = 20

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be at least one window")
        names = [o.name for o in self.objectives]
        if len(names) != len(set(names)):
            raise ValueError("objective names must be unique")

    @classmethod
    def default(cls) -> "SloSpec":
        """Tail decision latency, window BHR, model freshness and drift.

        Decision-latency ceilings (p50 ≤ 1 ms, p99 ≤ 2 ms, p999 ≤ 5 ms on
        ``serve.decision_latency_seconds``) are deliberately generous
        against the microsecond-scale decisions the engine makes — they
        gate *pathology* (a stall on the scoring path, training leaking
        into it), not CPU luck, so the gate holds on noisy CI hosts.  The
        drift detectors and the halt flag have no budget: one bad window
        breaches.
        """
        latency = "latency_quantile"
        return cls(objectives=(
            SloObjective("decision_latency_p50", latency, quantile=0.5,
                         max_value=1e-3, min_count=10),
            SloObjective("decision_latency_p99", latency, quantile=0.99,
                         max_value=2e-3, min_count=10),
            SloObjective("decision_latency_p999", latency, quantile=0.999,
                         max_value=5e-3, min_count=50),
            SloObjective("window_bhr", "window_bhr", min_value=0.2,
                         budget=0.2),
            SloObjective("train_to_install", "staleness", max_value=8.0),
            SloObjective("bhr_drift", "bhr_drift", max_value=0.10,
                         budget=0.0),
            SloObjective("score_drift", "score_drift",
                         metric=_SCORE_HISTOGRAM, max_value=0.25,
                         budget=0.0, min_count=200),
            SloObjective("feature_drift", "feature_drift", max_value=2.0,
                         budget=0.0),
            SloObjective("training_halted", "training_halted",
                         max_value=0.0, budget=0.0),
        ))

    @classmethod
    def from_dict(cls, data: dict) -> "SloSpec":
        """Build a spec from the JSON shape ``as_dict`` produces."""
        objectives = tuple(
            SloObjective(
                name=item["name"],
                kind=item["kind"],
                metric=item.get("metric", DECISION_LATENCY_HISTOGRAM),
                quantile=float(item.get("quantile", 0.99)),
                max_value=item.get("max_value"),
                min_value=item.get("min_value"),
                budget=float(item.get("budget", 0.1)),
                min_count=int(item.get("min_count", 1)),
            )
            for item in data.get("objectives", [])
        )
        if not objectives:
            raise ValueError("SLO spec declares no objectives")
        return cls(objectives=objectives, horizon=int(data.get("horizon", 20)))

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "SloSpec":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def as_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "objectives": [o.as_dict() for o in self.objectives],
        }


@dataclass
class _ObjectiveState:
    """Rolling verdict window for one objective, plus the detector memory
    the drift kinds fold window by window."""

    verdicts: deque = field(default_factory=deque)
    last_value: float = 0.0
    evaluated: int = 0
    violations: int = 0
    breached: bool = False
    page_hinkley: PageHinkley | None = None
    prev_counts: list[float] | None = None
    burn_in: int = 0
    ewma: dict[str, EwmaDetector] = field(default_factory=dict)


class SloEngine:
    """Evaluates an :class:`SloSpec` against the window stream::

        engine = SloEngine(SloSpec.default()).attach(registry)
        ...run...
        registry.flush()
        verdict = engine.verdict()   # JSON for /health and `lfo serve`
        ok = engine.ok               # exit-code material

    An objective is **breached** while its bad-window count over the
    rolling horizon exceeds ``budget × horizon``.  Breach entry raises an
    ``slo.breach`` event and bumps ``slo.window_violations`` /
    ``slo.breached_objectives`` on the attached registry (fixed literal
    names — per-objective detail lives in the verdict JSON, not in
    metric-name cardinality).
    """

    def __init__(self, spec: SloSpec | None = None) -> None:
        self.spec = spec or SloSpec.default()
        self._registry = None
        self._states = {
            objective.name: _ObjectiveState(
                verdicts=deque(maxlen=self.spec.horizon)
            )
            for objective in self.spec.objectives
        }
        self.windows_observed = 0

    def attach(
        self, registry: MetricsRegistry | NullRegistry
    ) -> "SloEngine":
        """Subscribe to a windowed registry (no-op on a NullRegistry)."""
        self._registry = registry
        registry.on_close(self.observe_window)
        return self

    # -- evaluation ----------------------------------------------------------

    def observe_window(self, snapshot: WindowSnapshot) -> None:
        self.windows_observed += 1
        window_violations = 0
        newly_breached: list[str] = []
        for objective in self.spec.objectives:
            state = self._states[objective.name]
            ok, value = objective.evaluate(snapshot, state)
            if ok is None:
                continue
            state.evaluated += 1
            state.last_value = value
            state.verdicts.append(0 if ok else 1)
            if not ok:
                state.violations += 1
                window_violations += 1
            bad = sum(state.verdicts)
            breached = bad > objective.budget * self.spec.horizon
            if breached and not state.breached:
                newly_breached.append(objective.name)
            state.breached = breached
        self._publish(window_violations, newly_breached)

    def _publish(self, violations: int, newly_breached: list[str]) -> None:
        registry = self._registry
        if registry is None or not registry.enabled:
            return
        if violations:
            registry.counter("slo.window_violations").inc(violations)
        registry.gauge("slo.breached_objectives").set(
            sum(1 for s in self._states.values() if s.breached)
        )
        for _ in newly_breached:
            registry.event("slo.breach")

    # -- burn accounting -----------------------------------------------------

    def burn_rate(self, name: str) -> float:
        """Fraction of objective ``name``'s error budget consumed over the
        rolling horizon (1.0 = budget exhausted, >1.0 = breached)."""
        objective = self._objective(name)
        state = self._states[name]
        allowed = objective.budget * self.spec.horizon
        bad = sum(state.verdicts)
        if allowed <= 0.0:
            return float(bad)
        return bad / allowed

    def _objective(self, name: str) -> SloObjective:
        for objective in self.spec.objectives:
            if objective.name == name:
                return objective
        raise KeyError(name)

    # -- reporting -----------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True while no objective is currently breached."""
        return not any(state.breached for state in self._states.values())

    def verdict(self) -> dict:
        """JSON-safe per-objective verdict (the ``/health`` SLO block)."""
        objectives = {}
        for objective in self.spec.objectives:
            state = self._states[objective.name]
            objectives[objective.name] = {
                "kind": objective.kind,
                "ok": not state.breached,
                "last_value": state.last_value,
                "threshold": (
                    objective.min_value
                    if objective.kind in _FLOOR_KINDS
                    else objective.max_value
                ),
                "evaluated_windows": state.evaluated,
                "violations": state.violations,
                "bad_in_horizon": sum(state.verdicts),
                "budget": objective.budget,
                "burn_rate": self.burn_rate(objective.name),
            }
        return {
            "ok": self.ok,
            "horizon": self.spec.horizon,
            "windows_observed": self.windows_observed,
            "objectives": objectives,
        }

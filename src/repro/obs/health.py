"""Online model-health and drift detection over telemetry windows.

The paper's robustness claim is that LFO keeps working *while traffic
changes*.  Cumulative metrics cannot show the moment it stops working;
this module watches the :class:`~repro.obs.windows.WindowedRegistry`
ring and turns per-window deltas into typed alerts:

* **window BHR** — an EWMA baseline plus a one-sided Page-Hinkley test
  detect a sustained drop in the byte hit ratio (the serving-quality
  signal the whole system optimises);
* **admission-score drift** — the population-stability index between
  consecutive windows of the ``lfo.admission_score`` histogram (the
  model's score distribution over the ``CompiledPredictor`` score
  buckets — sigmoid-mapped raw-score edges).  A score distribution that
  jumps while the model is fixed means the *inputs* moved: classic
  covariate shift, visible before BHR sags;
* **feature drift** — EWMA deviation monitors on the
  ``online.feature_*`` arena-summary gauges published by
  :class:`repro.core.LFOOnline` at every window close (tracked objects,
  mean recency, mean cost from the :class:`repro.features.FeatureTracker`
  arena);
* **training posture** — staleness (``online.windows_since_model``) and
  the resilience halt flag (``resilience.training_halted``), lifted from
  the same gauges ``resilience_stats`` feeds.

Every detector is a pure function of window contents, so a seeded replay
produces the same alerts in the same windows (asserted by
``benchmarks/bench_ext_drift.py``).  Alerts are routed as counters plus
``registry.event()`` markers so the span ring shows *where* in the run a
detector fired, and retained on the monitor for the ``/health`` endpoint
and the ``lfo serve`` verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log
from typing import Sequence

from .registry import MetricsRegistry, NullRegistry
from .windows import WindowSnapshot, window_bhr

__all__ = [
    "EwmaDetector",
    "PageHinkley",
    "HealthAlert",
    "HealthConfig",
    "HealthMonitor",
    "population_stability_index",
]

#: Probability floor for PSI bins: empty bins would make the log diverge.
_PSI_EPS = 1e-6

#: Gauge names published by ``LFOOnline`` that describe the *workload*
#: (arena summaries).  The tracked-object count is deliberately absent:
#: it saturates at the cache/tracker capacity and would self-trigger.
FEATURE_GAUGES = ("online.feature_recency_mean", "online.feature_cost_mean")

STALENESS_GAUGE = "online.windows_since_model"
HALTED_GAUGE = "resilience.training_halted"
SCORE_HISTOGRAM = "lfo.admission_score"
MODEL_INSTALLS_COUNTER = "online.model_installs"


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
    """Exponentially weighted baseline with relative-deviation alerts.

    ``update(x)`` returns the relative deviation of ``x`` from the
    baseline *before* folding ``x`` in, so a step change scores against
    the pre-shift history.  The first ``warmup`` updates only build the
    baseline (deviation 0.0).
    """

    def __init__(self, alpha: float = 0.3, warmup: int = 3) -> None:
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
        scale = max(abs(previous), _PSI_EPS)
        return abs(value - previous) / scale


class PageHinkley:
    """One-sided Page-Hinkley test for a sustained *drop* in the mean.

    Accumulates ``mean_so_far - x_t - delta`` (clamped at zero), where
    ``delta`` absorbs benign noise; an alert fires when the accumulator
    exceeds ``lamb`` — i.e. the series has run below its historical mean
    by more than ``delta`` for long enough to integrate to ``lamb``.
    The accumulator and running mean reset after an alert so a single
    regime change raises one alert, not one per window.
    """

    def __init__(
        self, delta: float = 0.005, lamb: float = 0.1, warmup: int = 3
    ) -> None:
        if lamb <= 0.0:
            raise ValueError("lamb must be positive")
        self.delta = delta
        self.lamb = lamb
        self.warmup = warmup
        self.cumulative = 0.0
        self._sum = 0.0
        self.n = 0

    def update(self, value: float) -> bool:
        self.n += 1
        self._sum += value
        mean = self._sum / self.n
        if self.n <= self.warmup:
            return False
        self.cumulative = max(
            0.0, self.cumulative + (mean - value - self.delta)
        )
        if self.cumulative > self.lamb:
            self.reset()
            return True
        return False

    def reset(self) -> None:
        self.cumulative = 0.0
        self._sum = 0.0
        self.n = 0


@dataclass(frozen=True)
class HealthConfig:
    """Detector thresholds (all pure window functions — see module doc).

    Attributes:
        bhr_ph_delta: Page-Hinkley per-window noise tolerance on BHR.
        bhr_ph_lambda: cumulative BHR shortfall that raises an alert.
        bhr_warmup: windows used to build the BHR baseline before any
            alert may fire.
        score_psi_threshold: consecutive-window PSI on the admission
            score distribution above which score drift is alerted
            (0.25 = conventional "major shift").
        score_min_count: minimum scored requests per window for the PSI
            to be meaningful; thinner windows are skipped.
        feature_ewma_alpha / feature_deviation / feature_warmup: EWMA
            smoothing, relative-deviation threshold, and warmup for the
            arena-summary gauges.
        staleness_windows: alert once ``online.windows_since_model``
            reaches this (0 disables; latched — re-arms on recovery).
    """

    bhr_ph_delta: float = 0.01
    bhr_ph_lambda: float = 0.10
    bhr_warmup: int = 3
    score_psi_threshold: float = 0.25
    score_min_count: int = 200
    feature_ewma_alpha: float = 0.3
    feature_deviation: float = 2.0
    feature_warmup: int = 3
    staleness_windows: int = 0


@dataclass(frozen=True)
class HealthAlert:
    """One detector firing on one window."""

    kind: str
    window_index: int
    value: float
    threshold: float
    message: str

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "window_index": self.window_index,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }


@dataclass
class _MonitorState:
    """Mutable detector state, split out so HealthMonitor reads clean."""

    bhr_ph: PageHinkley = field(default_factory=PageHinkley)
    bhr_ewma: EwmaDetector = field(default_factory=EwmaDetector)
    feature_ewma: dict[str, EwmaDetector] = field(default_factory=dict)
    prev_score_counts: list[float] | None = None
    score_burn_in: int = 0
    last_psi: float = 0.0
    stale_latched: bool = False
    halt_latched: bool = False


class HealthMonitor:
    """Feeds telemetry windows through the drift/health detectors.

    Attach to a windowed registry and every closed window is scored::

        registry = WindowedRegistry(every_requests=2_000)
        monitor = HealthMonitor().attach(registry)
        with use_registry(registry):
            simulate(trace, policy)
        registry.flush()          # close the partial tail window
        print(monitor.alerts)

    Attaching to a :class:`~repro.obs.NullRegistry` is a silent no-op
    (its ``on_close`` drops the subscription), so callers need no
    enabled-check.
    """

    def __init__(self, config: HealthConfig | None = None) -> None:
        self.config = config or HealthConfig()
        self.alerts: list[HealthAlert] = []
        self.windows_observed = 0
        self._registry = None
        cfg = self.config
        self._state = _MonitorState(
            bhr_ph=PageHinkley(
                delta=cfg.bhr_ph_delta,
                lamb=cfg.bhr_ph_lambda,
                warmup=cfg.bhr_warmup,
            ),
            bhr_ewma=EwmaDetector(warmup=cfg.bhr_warmup),
            feature_ewma={
                name: EwmaDetector(
                    alpha=cfg.feature_ewma_alpha, warmup=cfg.feature_warmup
                )
                for name in FEATURE_GAUGES
            },
        )

    def attach(
        self, registry: MetricsRegistry | NullRegistry
    ) -> "HealthMonitor":
        """Subscribe to a windowed registry's window-close stream."""
        self._registry = registry
        registry.on_close(self.observe_window)
        return self

    # -- detection -----------------------------------------------------------

    def observe_window(self, snapshot: WindowSnapshot) -> list[HealthAlert]:
        """Score one closed window; returns (and retains) new alerts."""
        self.windows_observed += 1
        new: list[HealthAlert] = []
        self._check_bhr(snapshot, new)
        self._check_score_distribution(snapshot, new)
        self._check_feature_summaries(snapshot, new)
        self._check_training_posture(snapshot, new)
        if new:
            self.alerts.extend(new)
            self._emit(new)
        return new

    def _check_bhr(self, snapshot: WindowSnapshot, out: list) -> None:
        bhr = window_bhr(snapshot)
        if bhr is None:
            return
        baseline = self._state.bhr_ewma.mean
        self._state.bhr_ewma.update(bhr)
        if self._state.bhr_ph.update(bhr):
            out.append(
                HealthAlert(
                    kind="bhr_drift",
                    window_index=snapshot.index,
                    value=bhr,
                    threshold=self.config.bhr_ph_lambda,
                    message=(
                        f"window BHR {bhr:.4f} ran below its EWMA baseline "
                        f"{(baseline if baseline is not None else bhr):.4f} "
                        "past the Page-Hinkley budget"
                    ),
                )
            )

    def _check_score_distribution(
        self, snapshot: WindowSnapshot, out: list
    ) -> None:
        hist = snapshot.histograms.get(SCORE_HISTOGRAM)
        if hist is None or hist["count"] < self.config.score_min_count:
            return
        if snapshot.delta(MODEL_INSTALLS_COUNTER) > 0:
            # A fresh model landed somewhere in this window, so its score
            # distribution is a mix of two models and legitimately breaks.
            # Drop the baseline AND burn one more window: the first full
            # window under a new model is still transient (the feature
            # state the model scores against was accumulated for its
            # predecessor), so PSI only ever compares windows scored by
            # one settled model.
            self._state.prev_score_counts = None
            self._state.score_burn_in = 1
            return
        if self._state.score_burn_in > 0:
            self._state.score_burn_in -= 1
            return
        counts = hist["counts"]
        previous = self._state.prev_score_counts
        self._state.prev_score_counts = list(counts)
        if previous is None:
            return
        psi = population_stability_index(previous, counts)
        self._state.last_psi = psi
        if psi > self.config.score_psi_threshold:
            out.append(
                HealthAlert(
                    kind="score_drift",
                    window_index=snapshot.index,
                    value=psi,
                    threshold=self.config.score_psi_threshold,
                    message=(
                        f"admission-score PSI {psi:.3f} vs previous window "
                        "— input distribution shifted under a fixed model"
                    ),
                )
            )

    def _check_feature_summaries(
        self, snapshot: WindowSnapshot, out: list
    ) -> None:
        for name, detector in self._state.feature_ewma.items():
            value = snapshot.gauges.get(name)
            if value is None:
                continue
            deviation = detector.update(value)
            if deviation > self.config.feature_deviation:
                out.append(
                    HealthAlert(
                        kind="feature_drift",
                        window_index=snapshot.index,
                        value=deviation,
                        threshold=self.config.feature_deviation,
                        message=(
                            f"arena summary {name} moved {deviation:.2f}x "
                            "from its EWMA baseline"
                        ),
                    )
                )

    def _check_training_posture(
        self, snapshot: WindowSnapshot, out: list
    ) -> None:
        limit = self.config.staleness_windows
        stale = snapshot.gauges.get(STALENESS_GAUGE, 0.0)
        if limit > 0:
            if stale >= limit and not self._state.stale_latched:
                self._state.stale_latched = True
                out.append(
                    HealthAlert(
                        kind="staleness",
                        window_index=snapshot.index,
                        value=stale,
                        threshold=float(limit),
                        message=(
                            f"{stale:.0f} training windows since the last "
                            "model install"
                        ),
                    )
                )
            elif stale < limit:
                self._state.stale_latched = False
        halted = snapshot.gauges.get(HALTED_GAUGE, 0.0)
        if halted >= 1.0 and not self._state.halt_latched:
            self._state.halt_latched = True
            out.append(
                HealthAlert(
                    kind="training_halted",
                    window_index=snapshot.index,
                    value=halted,
                    threshold=1.0,
                    message=(
                        "retraining halted after repeated failures; "
                        "serving continues without fresh models"
                    ),
                )
            )
        elif halted < 1.0:
            self._state.halt_latched = False

    # -- alert routing -------------------------------------------------------

    def _emit(self, alerts: list[HealthAlert]) -> None:
        registry = self._registry
        if registry is None or not registry.enabled:
            return
        registry.counter("health.alerts").inc(len(alerts))
        for alert in alerts:
            if alert.kind == "bhr_drift":
                registry.counter("health.bhr_alerts").inc()
                registry.event("health.bhr_drift")
            elif alert.kind == "score_drift":
                registry.counter("health.score_alerts").inc()
                registry.event("health.score_drift")
            elif alert.kind == "feature_drift":
                registry.counter("health.feature_alerts").inc()
                registry.event("health.feature_drift")
            elif alert.kind == "staleness":
                registry.counter("health.staleness_alerts").inc()
                registry.event("health.staleness")
            else:
                registry.counter("health.training_halt_alerts").inc()
                registry.event("health.training_halt")

    # -- reporting -----------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True while no alert has fired."""
        return not self.alerts

    def status(self) -> dict:
        """JSON-safe posture summary (the ``/health`` endpoint's block)."""
        kinds: dict[str, int] = {}
        for alert in self.alerts:
            kinds[alert.kind] = kinds.get(alert.kind, 0) + 1
        return {
            "ok": self.ok,
            "windows_observed": self.windows_observed,
            "alerts": len(self.alerts),
            "alerts_by_kind": kinds,
            "bhr_baseline": self._state.bhr_ewma.mean,
            "last_score_psi": self._state.last_psi,
            "recent_alerts": [a.as_dict() for a in self.alerts[-10:]],
        }

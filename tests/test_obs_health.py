"""Tests for the drift-detector SLO kinds (repro.obs.slo).

Each case drives the window sequence the retired health monitor was
tested on through an :class:`SloEngine` and expects its violations in
the same windows.
"""

import pytest

from repro.obs import SloEngine, SloObjective, SloSpec, WindowedRegistry
from repro.obs.slo import (
    EwmaDetector,
    PageHinkley,
    population_stability_index,
)


def close_window(registry, *, hit_bytes=0, miss_bytes=0, scores=(),
                 installs=0, gauges=None):
    """Drive one window through an attached registry."""
    if hit_bytes:
        registry.counter("sim.hit_bytes").inc(hit_bytes)
    if miss_bytes:
        registry.counter("sim.miss_bytes").inc(miss_bytes)
    if scores:
        hist = registry.histogram(
            "lfo.admission_score", bounds=tuple(i / 10 for i in range(1, 10))
        )
        for score in scores:
            hist.observe(score)
    if installs:
        registry.counter("online.model_installs").inc(installs)
    for name, value in (gauges or {}).items():
        registry.gauge(name).set(value)
    return registry.roll()


def watch(registry, *objectives, horizon=20):
    """An engine over ``objectives`` plus the list of (window, objective)
    violations it records, read by a subscriber attached after it."""
    engine = SloEngine(SloSpec(objectives, horizon=horizon)).attach(registry)
    violated = []
    seen = {o.name: 0 for o in objectives}

    def record(snapshot):
        for name, detail in engine.verdict()["objectives"].items():
            if detail["violations"] > seen[name]:
                violated.append((snapshot.index, name))
            seen[name] = detail["violations"]

    registry.on_close(record)
    return engine, violated


def default_objective(name):
    return next(o for o in SloSpec.default().objectives if o.name == name)


def breach_events(registry):
    return [s for s in registry.tracer.recent() if s["name"] == "slo.breach"]


BHR_DRIFT = default_objective("bhr_drift")
FEATURE_DRIFT = default_objective("feature_drift")
TRAINING_HALTED = default_objective("training_halted")
SCORE_DRIFT = SloObjective(
    "score_drift", "score_drift", metric="lfo.admission_score",
    max_value=0.25, budget=0.0, min_count=10,
)


class TestPopulationStabilityIndex:
    def test_identical_distributions_are_zero(self):
        assert population_stability_index([10, 20, 30], [10, 20, 30]) == 0.0
        # Scale-invariant: proportions match even if totals differ.
        assert population_stability_index([10, 20, 30], [1, 2, 3]) == (
            pytest.approx(0.0)
        )

    def test_shifted_distribution_is_positive(self):
        psi = population_stability_index([90, 10], [10, 90])
        assert psi > 0.25

    def test_small_shift_below_major_threshold(self):
        psi = population_stability_index([50, 50], [52, 48])
        assert 0.0 < psi < 0.1

    def test_empty_vectors_are_zero(self):
        assert population_stability_index([0, 0], [5, 5]) == 0.0
        assert population_stability_index([5, 5], [0, 0]) == 0.0

    def test_misaligned_vectors_rejected(self):
        with pytest.raises(ValueError):
            population_stability_index([1, 2], [1, 2, 3])

    def test_empty_bins_floored_not_infinite(self):
        psi = population_stability_index([100, 0], [0, 100])
        assert psi == pytest.approx(
            population_stability_index([0, 100], [100, 0])
        )
        assert psi < float("inf")


class TestEwmaDetector:
    def test_warmup_returns_zero(self):
        detector = EwmaDetector(warmup=3)
        assert detector.update(1.0) == 0.0
        assert detector.update(100.0) == 0.0
        assert detector.update(1.0) == 0.0

    def test_step_change_scores_against_history(self):
        detector = EwmaDetector(alpha=0.3, warmup=2)
        for _ in range(4):
            detector.update(10.0)
        deviation = detector.update(30.0)
        assert deviation == pytest.approx(2.0)

    def test_stable_series_near_zero(self):
        detector = EwmaDetector(warmup=2)
        deviations = [detector.update(5.0 + 0.01 * (i % 2))
                      for i in range(10)]
        assert max(deviations) < 0.01

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            EwmaDetector(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaDetector(alpha=1.5)


class TestPageHinkley:
    def test_no_alert_on_stationary_series(self):
        ph = PageHinkley(delta=0.01, lamb=0.1, warmup=3)
        assert not any(ph.update(0.5) > ph.lamb for _ in range(50))

    def test_sustained_drop_alerts_once(self):
        ph = PageHinkley(delta=0.01, lamb=0.1, warmup=3)
        for _ in range(10):
            assert ph.update(0.5) <= ph.lamb
        fired = [ph.update(0.2) > ph.lamb for _ in range(10)]
        assert sum(fired) == 1  # restarts after an alarm, no alarm storm

    def test_increase_never_alerts(self):
        ph = PageHinkley(delta=0.01, lamb=0.1, warmup=3)
        assert not any(ph.update(0.5 + 0.05 * i) > ph.lamb
                       for i in range(20))

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            PageHinkley(lamb=0.0)


class TestBhrDrift:
    def test_detects_sustained_bhr_drop(self):
        registry = WindowedRegistry(every_requests=100)
        engine, violated = watch(registry, BHR_DRIFT)
        for _ in range(8):
            close_window(registry, hit_bytes=800, miss_bytes=200)
        assert engine.ok
        for _ in range(6):
            close_window(registry, hit_bytes=300, miss_bytes=700)
        assert violated == [(8, "bhr_drift")]
        assert not engine.ok
        assert registry.counter("slo.window_violations").value == 1
        assert len(breach_events(registry)) == 1

    def test_stationary_bhr_is_quiet(self):
        registry = WindowedRegistry(every_requests=100)
        engine, violated = watch(registry, BHR_DRIFT)
        for _ in range(30):
            close_window(registry, hit_bytes=700, miss_bytes=300)
        assert engine.ok
        assert violated == []

    def test_windows_without_bytes_skipped(self):
        registry = WindowedRegistry(every_requests=100)
        engine, violated = watch(registry, BHR_DRIFT)
        for _ in range(10):
            close_window(registry)
        assert engine.windows_observed == 10
        assert engine.verdict()["objectives"]["bhr_drift"][
            "evaluated_windows"] == 0
        assert violated == []


class TestScoreDrift:
    LOW = [0.15] * 90 + [0.85] * 10
    HIGH = [0.15] * 10 + [0.85] * 90

    def test_detects_distribution_shift(self):
        registry = WindowedRegistry(every_requests=100)
        engine, violated = watch(registry, SCORE_DRIFT)
        for _ in range(3):
            close_window(registry, scores=self.LOW)
        assert engine.ok
        close_window(registry, scores=self.HIGH)
        assert violated == [(3, "score_drift")]
        assert registry.counter("slo.window_violations").value == 1

    def test_model_install_rebaselines_psi(self):
        """An install window is mixed-model: no PSI, baseline dropped."""
        registry = WindowedRegistry(every_requests=100)
        engine, violated = watch(registry, SCORE_DRIFT)
        for _ in range(3):
            close_window(registry, scores=self.LOW)
        # New model lands mid-window; its scores shift drastically but the
        # comparison is suppressed and the baseline rebuilt.
        close_window(registry, scores=self.HIGH, installs=1)
        close_window(registry, scores=self.HIGH)
        close_window(registry, scores=self.HIGH)
        assert engine.ok and violated == []
        # Only windows 1 and 2 compared against a settled predecessor.
        assert engine.verdict()["objectives"]["score_drift"][
            "evaluated_windows"] == 2

    def test_thin_windows_skipped(self):
        registry = WindowedRegistry(every_requests=100)
        engine, violated = watch(registry, SCORE_DRIFT)
        close_window(registry, scores=[0.15] * 50)
        close_window(registry, scores=[0.85] * 5)  # below min_count
        assert engine.ok and violated == []


class TestFeatureDrift:
    def test_detects_arena_summary_jump(self):
        registry = WindowedRegistry(every_requests=100)
        engine, violated = watch(
            registry, SloObjective("feature_drift", "feature_drift",
                                   max_value=1.0, budget=0.0)
        )
        for _ in range(5):
            close_window(
                registry, gauges={"online.feature_recency_mean": 10.0}
            )
        close_window(registry, gauges={"online.feature_recency_mean": 50.0})
        assert violated == [(5, "feature_drift")]
        assert engine.verdict()["objectives"]["feature_drift"][
            "last_value"] == pytest.approx(4.0)


class TestTrainingPosture:
    def test_staleness_latch(self):
        """The train-lag signal is judged by the ``staleness`` kind; with a
        one-window horizon a breach clears on recovery, so breach entries
        count what the latched detector counted."""
        registry = WindowedRegistry(every_requests=100)
        engine, violated = watch(
            registry,
            SloObjective("stale", "staleness", max_value=2.0, budget=0.0),
            horizon=1,
        )
        close_window(registry, gauges={"online.windows_since_model": 2.0})
        assert engine.ok
        close_window(registry, gauges={"online.windows_since_model": 3.0})
        close_window(registry, gauges={"online.windows_since_model": 4.0})
        assert len(breach_events(registry)) == 1  # latched, not per-window
        # Recovery re-arms the breach.
        close_window(registry, gauges={"online.windows_since_model": 0.0})
        assert engine.ok
        close_window(registry, gauges={"online.windows_since_model": 5.0})
        assert len(breach_events(registry)) == 2
        assert [w for w, _ in violated] == [1, 2, 4]

    def test_staleness_disabled_by_default(self):
        """One stale window only burns ``train_to_install``'s budget."""
        registry = WindowedRegistry(every_requests=100)
        engine = SloEngine().attach(registry)
        close_window(registry, gauges={"online.windows_since_model": 99.0})
        assert engine.ok
        assert engine.verdict()["objectives"]["train_to_install"][
            "violations"] == 1

    def test_training_halt_latch(self):
        registry = WindowedRegistry(every_requests=100)
        engine, violated = watch(registry, TRAINING_HALTED)
        close_window(registry, gauges={"resilience.training_halted": 1.0})
        close_window(registry, gauges={"resilience.training_halted": 1.0})
        assert violated == [(0, "training_halted"), (1, "training_halted")]
        assert not engine.ok
        assert len(breach_events(registry)) == 1


class TestStatus:
    def test_status_shape(self):
        registry = WindowedRegistry(every_requests=100)
        engine = SloEngine(SloSpec((
            SloObjective("feature_drift", "feature_drift", max_value=0.5,
                         budget=0.0),
            BHR_DRIFT,
        ))).attach(registry)
        for value in (10.0, 10.0, 10.0, 40.0):
            close_window(
                registry,
                hit_bytes=700,
                miss_bytes=300,
                gauges={"online.feature_cost_mean": value},
            )
        verdict = engine.verdict()
        assert verdict["ok"] is False
        assert verdict["windows_observed"] == 4
        feature = verdict["objectives"]["feature_drift"]
        assert feature["ok"] is False and feature["violations"] == 1
        assert verdict["objectives"]["bhr_drift"]["ok"] is True

    def test_alert_as_dict(self):
        registry = WindowedRegistry(every_requests=100)
        engine = SloEngine().attach(registry)
        close_window(registry, gauges={"resilience.training_halted": 1.0})
        detail = engine.verdict()["objectives"]["training_halted"]
        assert detail["kind"] == "training_halted"
        assert detail["threshold"] == 0.0
        assert detail["last_value"] == 1.0
        assert detail["violations"] == 1 and detail["ok"] is False

"""Tests for the SLO engine (repro.obs.slo)."""

import json

import pytest

from repro.obs import (
    MetricsRegistry, SloEngine, SloObjective, SloSpec, WindowedRegistry,
    use_registry,
)
from repro.obs.slo import _ObjectiveState

LATENCY_BUCKETS = (1e-4, 1e-3, 1e-2)


def latency_objective(**overrides):
    kwargs = dict(
        name="p99",
        kind="latency_quantile",
        metric="serve.decision_latency_seconds",
        quantile=0.99,
        max_value=1e-3,
        budget=0.2,
        min_count=5,
    )
    kwargs.update(overrides)
    return SloObjective(**kwargs)


def close_window(registry, *, latencies=(), hit_bytes=0, miss_bytes=0,
                 staleness=None, agreement=None):
    if latencies:
        hist = registry.histogram(
            "serve.decision_latency_seconds", bounds=LATENCY_BUCKETS
        )
        for value in latencies:
            hist.observe(value)
    if hit_bytes:
        registry.counter("sim.hit_bytes").inc(hit_bytes)
    if miss_bytes:
        registry.counter("sim.miss_bytes").inc(miss_bytes)
    if staleness is not None:
        registry.gauge("online.windows_since_model").set(staleness)
    if agreement is not None:
        registry.gauge("online.opt_agreement").set(agreement)
    return registry.roll()


class TestSloObjective:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="throughput", max_value=1.0)

    def test_missing_threshold_rejected(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="latency_quantile")
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="window_bhr")
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="staleness")
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="opt_agreement", max_value=0.9)

    def test_invalid_budget_and_quantile_rejected(self):
        with pytest.raises(ValueError):
            latency_objective(budget=1.0)
        with pytest.raises(ValueError):
            latency_objective(quantile=1.0)

    def test_latency_evaluate(self):
        registry = WindowedRegistry(every_requests=10)
        snap = close_window(registry, latencies=[5e-5] * 20)
        ok, value = latency_objective().evaluate(snap)
        assert ok is True and value <= 1e-3

        snap = close_window(registry, latencies=[5e-3] * 20)
        ok, value = latency_objective().evaluate(snap)
        assert ok is False and value > 1e-3

    def test_latency_thin_window_skipped(self):
        registry = WindowedRegistry(every_requests=10)
        snap = close_window(registry, latencies=[5e-3] * 3)  # < min_count
        ok, _ = latency_objective().evaluate(snap)
        assert ok is None

    def test_bhr_evaluate(self):
        objective = SloObjective(
            name="bhr", kind="window_bhr", min_value=0.5
        )
        registry = WindowedRegistry(every_requests=10)
        snap = close_window(registry, hit_bytes=700, miss_bytes=300)
        assert objective.evaluate(snap) == (True, pytest.approx(0.7))
        snap = close_window(registry, hit_bytes=300, miss_bytes=700)
        assert objective.evaluate(snap) == (False, pytest.approx(0.3))
        # No bytes at all: skip, not violation.
        snap = close_window(registry)
        assert objective.evaluate(snap)[0] is None

    def test_staleness_evaluate(self):
        objective = SloObjective(name="s", kind="staleness", max_value=3.0)
        registry = WindowedRegistry(every_requests=10)
        snap = close_window(registry, staleness=2.0)
        assert objective.evaluate(snap) == (True, 2.0)
        snap = close_window(registry, staleness=5.0)
        assert objective.evaluate(snap) == (False, 5.0)
        # Gauge never published: skip.
        other = WindowedRegistry(every_requests=10)
        assert objective.evaluate(other.roll())[0] is None

    def test_opt_agreement_evaluate(self):
        objective = SloObjective(
            name="agree", kind="opt_agreement", min_value=0.8
        )
        registry = WindowedRegistry(every_requests=10)
        # No warm window labelled yet: the gauge is absent, skip.
        assert objective.evaluate(close_window(registry))[0] is None
        snap = close_window(registry, agreement=0.85)
        assert objective.evaluate(snap) == (True, 0.85)
        snap = close_window(registry, agreement=0.75)
        assert objective.evaluate(snap) == (False, 0.75)
        engine = SloEngine(SloSpec(objectives=(objective,)))
        engine.observe_window(snap)
        assert engine.verdict()["objectives"]["agree"]["threshold"] == 0.8


class TestSloSpec:
    def test_default_spec(self):
        spec = SloSpec.default()
        assert [o.name for o in spec.objectives] == [
            "decision_latency_p50", "decision_latency_p99",
            "decision_latency_p999", "window_bhr", "train_to_install",
            "bhr_drift", "score_drift", "feature_drift", "training_halted",
        ]
        drift = {o.name: o for o in spec.objectives[5:]}
        assert all(o.kind == o.name and o.budget == 0.0
                   for o in drift.values())
        assert [o.max_value for o in drift.values()] == [0.10, 0.25, 2.0, 0.0]
        assert drift["score_drift"].metric == "lfo.admission_score"
        assert drift["score_drift"].min_count == 200
        latency = [o for o in spec.objectives if o.kind == "latency_quantile"]
        assert {o.metric for o in latency} == {
            "serve.decision_latency_seconds"
        }
        assert [(o.quantile, o.max_value, o.min_count) for o in latency] == [
            (0.5, 1e-3, 10), (0.99, 2e-3, 10), (0.999, 5e-3, 50),
        ]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SloSpec(objectives=(
                latency_objective(), latency_objective()
            ))

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError):
            SloSpec(objectives=(latency_objective(),), horizon=0)

    def test_dict_round_trip(self):
        spec = SloSpec.default()
        assert SloSpec.from_dict(spec.as_dict()) == spec

    def test_from_json(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(SloSpec.default().as_dict()))
        assert SloSpec.from_json(path) == SloSpec.default()

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            SloSpec.from_dict({"objectives": []})


class TestSloEngine:
    def spec(self, budget=0.2, horizon=10):
        return SloSpec(
            objectives=(latency_objective(budget=budget),),
            horizon=horizon,
        )

    def test_healthy_run_stays_ok(self):
        registry = WindowedRegistry(every_requests=10)
        engine = SloEngine(self.spec()).attach(registry)
        for _ in range(15):
            close_window(registry, latencies=[5e-5] * 20)
        assert engine.ok
        assert engine.burn_rate("p99") == 0.0
        assert registry.gauge("slo.breached_objectives").value == 0.0

    def test_breach_after_budget_exhausted(self):
        # budget 0.2 x horizon 10 = 2 bad windows allowed.
        registry = WindowedRegistry(every_requests=10)
        engine = SloEngine(self.spec()).attach(registry)
        for _ in range(5):
            close_window(registry, latencies=[5e-5] * 20)
        for i in range(3):
            close_window(registry, latencies=[5e-3] * 20)
        assert not engine.ok
        assert engine.burn_rate("p99") == pytest.approx(1.5)
        assert registry.counter("slo.window_violations").value == 3
        assert registry.gauge("slo.breached_objectives").value == 1.0
        events = [s for s in registry.tracer.recent()
                  if s["name"] == "slo.breach"]
        assert len(events) == 1  # breach *entry*, not per bad window

    def test_breach_recovers_as_horizon_rolls(self):
        registry = WindowedRegistry(every_requests=10)
        engine = SloEngine(self.spec(horizon=5, budget=0.2)).attach(registry)
        for _ in range(2):
            close_window(registry, latencies=[5e-3] * 20)
        assert not engine.ok
        for _ in range(5):
            close_window(registry, latencies=[5e-5] * 20)
        assert engine.ok  # bad windows aged out of the horizon

    def test_skipped_windows_do_not_burn_budget(self):
        registry = WindowedRegistry(every_requests=10)
        engine = SloEngine(self.spec()).attach(registry)
        for _ in range(20):
            close_window(registry)  # no latency signal at all
        assert engine.ok
        assert engine.verdict()["objectives"]["p99"]["evaluated_windows"] == 0

    def test_burn_rate_unknown_objective(self):
        engine = SloEngine(self.spec())
        with pytest.raises(KeyError):
            engine.burn_rate("nope")

    def test_verdict_shape(self):
        registry = WindowedRegistry(every_requests=10)
        engine = SloEngine(self.spec()).attach(registry)
        close_window(registry, latencies=[5e-5] * 20)
        verdict = engine.verdict()
        assert verdict["ok"] is True
        assert verdict["windows_observed"] == 1
        detail = verdict["objectives"]["p99"]
        assert detail["kind"] == "latency_quantile"
        assert detail["ok"] is True
        assert detail["threshold"] == 1e-3
        assert detail["evaluated_windows"] == 1
        assert detail["violations"] == 0
        assert detail["burn_rate"] == 0.0
        json.dumps(verdict)  # JSON-safe for the /health endpoint


def test_evaluation_is_replay_pure():
    """Judging a recorded window sequence twice, each time from fresh
    objective state, gives the same verdicts and writes nothing to the
    process registry: a replay violates in the windows the live run did."""
    recorder = WindowedRegistry(every_requests=10)
    scores = recorder.histogram(
        "lfo.admission_score", bounds=tuple(i / 10 for i in range(1, 10))
    )
    windows = []
    for i in range(10):
        for j in range(300):
            scores.observe(((i * 7 + j) % 10) / 10 + (0.05 if i > 6 else 0))
        recorder.gauge("online.feature_recency_mean").set(1.0 + i % 3)
        recorder.gauge("online.feature_cost_mean").set(5.0 * (1 + (i > 7)))
        recorder.gauge("resilience.training_halted").set(0.0)
        if i == 4:
            recorder.counter("online.model_installs").inc()
        windows.append(close_window(
            recorder, latencies=[2e-4 * (1 + i)] * 60,
            hit_bytes=100 * (10 - i), miss_bytes=100 * i, staleness=i % 3,
            agreement=0.8 + 0.01 * i if i >= 4 else None,
        ))
    objectives = SloSpec.default().objectives + (
        SloObjective("agree", "opt_agreement", min_value=0.85),
    )

    def judge():
        verdicts = []
        for objective in objectives:
            state = _ObjectiveState()
            verdicts += [objective.evaluate(w, state) for w in windows]
        return verdicts

    probe = MetricsRegistry()
    with use_registry(probe):
        first, second = judge(), judge()
    assert first == second
    assert {ok for ok, _ in first} == {True, False, None}
    assert probe.to_dict() == MetricsRegistry().to_dict()

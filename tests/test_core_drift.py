"""Tests for drift detection and adaptive retraining."""

import numpy as np
import pytest

from repro.core import AdaptiveLFOOnline, DriftDetector
from repro.gbdt import GBDTParams
from repro.sim import simulate
from repro.trace import ContentClass, generate_mix_shift_trace


class TestDriftDetector:
    def test_same_distribution_scores_low(self):
        rng = np.random.default_rng(0)
        ref = rng.lognormal(3, 1, size=(5000, 4))
        live = rng.lognormal(3, 1, size=(2000, 4))
        detector = DriftDetector().fit(ref)
        assert detector.score(live) < 0.05

    def test_shifted_distribution_scores_high(self):
        rng = np.random.default_rng(1)
        ref = rng.lognormal(3, 1, size=(5000, 4))
        live = rng.lognormal(5, 1, size=(2000, 4))  # e^2 ~ 7x shift
        detector = DriftDetector().fit(ref)
        assert detector.score(live) > 0.25

    def test_partial_column_monitoring(self):
        rng = np.random.default_rng(2)
        ref = rng.normal(size=(3000, 3))
        live = ref.copy()
        live[:, 2] += 100.0  # huge shift, but only in column 2
        detector = DriftDetector(features=[0, 1]).fit(ref)
        assert detector.score(live) < 0.05

    def test_empty_live_window_scores_zero(self):
        detector = DriftDetector().fit(np.random.default_rng(3).normal(size=(100, 2)))
        assert detector.score(np.zeros((0, 2))) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(n_bins=1)
        with pytest.raises(ValueError):
            DriftDetector().fit(np.zeros((0, 3)))
        with pytest.raises(RuntimeError):
            DriftDetector().score(np.zeros((5, 3)))

    def test_psi_symmetric_zero_on_identical(self):
        rng = np.random.default_rng(4)
        X = rng.exponential(size=(4000, 2))
        detector = DriftDetector().fit(X)
        assert detector.score(X) == pytest.approx(0.0, abs=1e-6)


class TestAdaptiveLFOOnline:
    @pytest.fixture(scope="class")
    def shift_trace(self):
        # Two classes with *very* different size scales: a hard mid-stream
        # feature shift.
        small = ContentClass("small", 500, 1.0, 30, 0.5, 300)
        big = ContentClass("big", 200, 1.0, 3000, 0.5, 30_000)
        return generate_mix_shift_trace(
            [small, big], [[1.0, 0.0], [0.0, 1.0]],
            requests_per_phase=4_000, seed=9,
        )

    def test_drift_triggers_early_retrain(self, shift_trace):
        cache = shift_trace.footprint() // 10
        adaptive = AdaptiveLFOOnline(
            cache, window=6_000,  # boundary would come long after the shift
            drift_threshold=0.25, check_interval=500,
            gbdt_params=GBDTParams(num_iterations=10),
            n_gaps=10,
        )
        simulate(shift_trace, adaptive)
        assert adaptive.n_drift_retrains >= 1

    def test_no_drift_no_extra_retrains(self):
        from repro.trace import SyntheticConfig, generate_trace

        stationary = generate_trace(
            SyntheticConfig(n_requests=6_000, n_objects=600, alpha=1.0,
                            size_median=30, size_max=500, seed=4)
        )
        cache = stationary.footprint() // 10
        adaptive = AdaptiveLFOOnline(
            cache, window=2_000, drift_threshold=0.25, check_interval=500,
            gbdt_params=GBDTParams(num_iterations=10),
            n_gaps=10,
        )
        simulate(stationary, adaptive)
        assert adaptive.n_drift_retrains == 0
        assert adaptive.n_retrains == 3  # the regular boundary retrains

    def test_invalid_check_interval(self):
        with pytest.raises(ValueError):
            AdaptiveLFOOnline(cache_size=100, check_interval=0)

"""Tests for feature quantisation and noise injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import add_relative_noise, quantize_features


class TestQuantize:
    def test_zero_preserved(self):
        X = np.array([[0.0, 1.0], [0.0, 2.0]])
        assert (quantize_features(X, 4)[:, 0] == 0).all()

    def test_powers_of_two_exact(self):
        X = np.array([[1.0, 2.0, 4.0, 1024.0]])
        assert np.array_equal(quantize_features(X, 1), X)

    def test_relative_error_bounded(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0.1, 1e9, size=(500, 3))
        for bits in (2, 4, 8):
            Q = quantize_features(X, bits)
            rel = np.abs(Q - X) / X
            assert rel.max() <= 2.0**-bits + 1e-12

    def test_more_bits_more_accurate(self):
        rng = np.random.default_rng(1)
        X = rng.exponential(100, size=(300, 2))
        err = [
            np.abs(quantize_features(X, b) - X).mean() for b in (1, 4, 8)
        ]
        assert err[0] > err[1] > err[2]

    def test_negative_values_handled(self):
        X = np.array([[-3.7, 5.1]])
        Q = quantize_features(X, 8)
        assert Q[0, 0] < 0
        assert Q[0, 0] == pytest.approx(-3.7, rel=0.01)

    def test_high_bits_identity(self):
        X = np.array([[1.2345678]])
        assert quantize_features(X, 52)[0, 0] == X[0, 0]

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize_features(np.ones((1, 1)), 0)

    @given(st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_idempotent_property(self, bits):
        """Quantising twice equals quantising once."""
        rng = np.random.default_rng(bits)
        X = rng.uniform(0.01, 1e6, size=(100, 2))
        once = quantize_features(X, bits)
        twice = quantize_features(once, bits)
        assert np.allclose(once, twice, rtol=1e-12)


class TestNoise:
    def test_zero_scale_identity(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        assert np.array_equal(add_relative_noise(X, 0.0), X)

    def test_noise_is_relative(self):
        X = np.array([[1.0, 1e6]])
        rng = np.random.default_rng(2)
        noisy = add_relative_noise(X, 0.01, rng)
        rel = np.abs(noisy - X) / X
        assert rel.max() < 0.1  # both columns perturbed proportionally

    def test_deterministic_with_rng(self):
        X = np.ones((10, 2))
        a = add_relative_noise(X, 0.1, np.random.default_rng(5))
        b = add_relative_noise(X, 0.1, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            add_relative_noise(np.ones((1, 1)), -0.1)

"""Tests for prediction-throughput measurement (Figure 7 substrate)."""

import numpy as np
import pytest

from repro.core import LFOModel
from repro.core.throughput import (
    ThroughputPoint,
    gbits_served,
    measure_throughput,
)
from repro.features import Dataset, feature_names
from repro.gbdt import GBDTParams

N_GAPS = 4


@pytest.fixture(scope="module")
def tiny_model():
    rng = np.random.default_rng(0)
    n = 500
    names = feature_names(N_GAPS)
    X = np.zeros((n, len(names)))
    X[:, 0] = rng.integers(1, 100, size=n)
    X[:, 1] = X[:, 0]
    X[:, 2] = rng.integers(0, 1000, size=n)
    X[:, 3:] = rng.exponential(10, size=(n, N_GAPS))
    y = (X[:, 0] < 50).astype(float)
    dataset = Dataset(X, y, names)
    return LFOModel.train(dataset, params=GBDTParams(num_iterations=5))


@pytest.fixture(scope="module")
def feature_rows(tiny_model):
    rng = np.random.default_rng(1)
    return rng.random((2_000, 3 + N_GAPS)) * 100


class TestMeasureThroughput:
    def test_single_worker(self, tiny_model, feature_rows):
        point = measure_throughput(
            tiny_model, feature_rows, threads=1, min_duration=0.05
        )
        assert isinstance(point, ThroughputPoint)
        assert point.threads == 1
        assert point.requests_per_second > 0
        assert point.batch_size == len(feature_rows)  # fewer rows than batch

    def test_batch_capped_at_rows(self, tiny_model, feature_rows):
        point = measure_throughput(
            tiny_model, feature_rows, threads=1,
            batch_size=128, min_duration=0.05,
        )
        assert point.batch_size == 128

    def test_rate_counts_whole_batches(self, tiny_model, feature_rows):
        point = measure_throughput(
            tiny_model, feature_rows, threads=1,
            batch_size=64, min_duration=0.05,
        )
        # The loop scores whole batches, so the total is a multiple of 64;
        # the rate reflects at least one completed batch.
        assert point.requests_per_second * 0.05 >= 64 * 0.5

    def test_invalid_threads(self, tiny_model, feature_rows):
        with pytest.raises(ValueError):
            measure_throughput(tiny_model, feature_rows, threads=0)

    def test_empty_features(self, tiny_model):
        with pytest.raises(ValueError):
            measure_throughput(
                tiny_model, np.empty((0, 3 + N_GAPS)), threads=1
            )


class TestGbitsServed:
    def test_paper_arithmetic(self):
        # The paper's example regime: ~32 KB mean objects, 40 Gbit/s
        # needs ~156k predictions/second.
        rate = 40e9 / (32_000 * 8)
        assert gbits_served(rate, 32_000) == pytest.approx(40.0)

    def test_linear_in_both_arguments(self):
        base = gbits_served(1_000, 1_000)
        assert gbits_served(2_000, 1_000) == pytest.approx(2 * base)
        assert gbits_served(1_000, 3_000) == pytest.approx(3 * base)

    def test_zero_rate(self):
        assert gbits_served(0.0, 32_000) == 0.0

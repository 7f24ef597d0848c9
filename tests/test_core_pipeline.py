"""Tests for the offline pipeline, cutoff analysis, and throughput harness."""

from hashlib import blake2b

import numpy as np
import pytest

from repro.core import (
    LFOModel,
    OptLabelConfig,
    cutoff_sweep,
    equal_error_cutoff,
    error_rates,
    gbits_served,
    measure_throughput,
    prepare_windows,
    train_and_evaluate,
)
from repro.gbdt import GBDTParams
from repro.trace import SyntheticConfig, generate_trace

CACHE = 800


@pytest.fixture(scope="module")
def pipeline_trace():
    return generate_trace(
        SyntheticConfig(
            n_requests=3000, n_objects=400, alpha=1.0,
            size_median=20, size_sigma=1.0, size_max=400,
            locality=0.3, seed=31,
        )
    )


@pytest.fixture(scope="module")
def windows(pipeline_trace):
    return prepare_windows(
        pipeline_trace, CACHE, train_size=1500, test_size=1500,
        label_config=OptLabelConfig(mode="segmented", segment_length=750),
        n_gaps=10,
    )


@pytest.fixture(scope="module")
def report(windows):
    return train_and_evaluate(
        windows, params=GBDTParams(num_iterations=20)
    )


class TestPrepareWindows:
    def test_shapes(self, windows):
        assert windows.train.X.shape == (1500, 13)
        assert windows.test.X.shape == (1500, 13)
        assert len(windows.train.y) == 1500

    def test_labels_are_binary(self, windows):
        assert set(np.unique(windows.train.y)) <= {0.0, 1.0}

    def test_free_bytes_feature_varies(self, windows):
        assert np.unique(windows.train.X[:, 2]).size > 1

    def test_trace_too_short_rejected(self, pipeline_trace):
        with pytest.raises(ValueError, match="too short"):
            prepare_windows(pipeline_trace, CACHE, 2500, 2500)

    @pytest.mark.parametrize("backend", ["native", "python_fallback"])
    def test_windows_pinned(self, request, pipeline_trace, backend):
        """The train/test matrices and labels, digest by digest, on both
        feature backends (recorded before the window gather replaced the
        tracker's record-while-probing pass)."""
        request.getfixturevalue(backend)
        windows = prepare_windows(
            pipeline_trace, CACHE, train_size=1500, test_size=1500,
            label_config=OptLabelConfig(mode="segmented", segment_length=750),
            n_gaps=10,
        )
        digests = [
            blake2b(array.tobytes(), digest_size=8).hexdigest()
            for array in (
                windows.train.X, windows.train.y,
                windows.test.X, windows.test.y,
            )
        ]
        assert digests == [
            "df446e61ac2d49c6", "38746c05f0a56fea",
            "364f7a015297f280", "26ecb070bb53148e",
        ]


class TestTrainAndEvaluate:
    def test_beats_chance(self, report, windows):
        base_rate = windows.test.y.mean()
        chance = min(base_rate, 1 - base_rate)
        assert report.prediction_error < chance

    def test_rates_sum_to_error(self, report):
        assert report.prediction_error == pytest.approx(
            report.false_positive_rate + report.false_negative_rate
        )

    def test_accuracy_complement(self, report):
        assert report.accuracy == pytest.approx(1 - report.prediction_error)

    def test_train_subset_restricts(self, windows):
        small = train_and_evaluate(
            windows,
            params=GBDTParams(num_iterations=10),
            train_subset=np.arange(100),
        )
        assert 0.0 <= small.prediction_error <= 1.0

    def test_rates_at_cutoff(self, report):
        err, fp, fn = report.rates_at_cutoff(0.5)
        assert err == pytest.approx(report.prediction_error)


class TestErrorRates:
    def test_perfect_predictions(self):
        likelihoods = np.array([0.9, 0.1, 0.8, 0.2])
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        err, fp, fn = error_rates(likelihoods, labels, 0.5)
        assert (err, fp, fn) == (0.0, 0.0, 0.0)

    def test_all_wrong(self):
        likelihoods = np.array([0.1, 0.9])
        labels = np.array([1.0, 0.0])
        err, fp, fn = error_rates(likelihoods, labels, 0.5)
        assert err == 1.0
        assert fp == 0.5
        assert fn == 0.5

    def test_cutoff_extremes(self):
        likelihoods = np.array([0.3, 0.6])
        labels = np.array([0.0, 1.0])
        # Cutoff 0: everything admitted -> only FPs possible.
        _, fp, fn = error_rates(likelihoods, labels, 0.0)
        assert fn == 0.0 and fp == 0.5
        # Cutoff > 1: nothing admitted -> only FNs possible.
        _, fp, fn = error_rates(likelihoods, labels, 1.01)
        assert fp == 0.0 and fn == 0.5


class TestCutoffSweep:
    def test_monotone_rates(self, report):
        """FN rate grows with cutoff; FP rate shrinks (Figure 5a shape)."""
        sweep = cutoff_sweep(report.likelihoods, report.labels)
        assert (np.diff(sweep.false_negative) >= -1e-12).all()
        assert (np.diff(sweep.false_positive) <= 1e-12).all()

    def test_prediction_error_is_sum(self, report):
        sweep = cutoff_sweep(report.likelihoods, report.labels)
        assert np.allclose(
            sweep.prediction_error,
            sweep.false_positive + sweep.false_negative,
        )

    def test_equal_error_cutoff_balances(self, report):
        cutoff = equal_error_cutoff(report.likelihoods, report.labels)
        _, fp, fn = error_rates(report.likelihoods, report.labels, cutoff)
        assert abs(fp - fn) < 0.05

    def test_custom_grid(self, report):
        grid = np.array([0.25, 0.5, 0.75])
        sweep = cutoff_sweep(report.likelihoods, report.labels, grid)
        assert len(sweep.cutoffs) == 3


class TestThroughput:
    def test_positive_rate(self, report, windows):
        point = measure_throughput(
            report.model, windows.test.X, threads=1, min_duration=0.1
        )
        assert point.requests_per_second > 0
        assert point.threads == 1

    def test_two_threads_runs(self, report, windows):
        point = measure_throughput(
            report.model, windows.test.X, threads=2, min_duration=0.1
        )
        assert point.requests_per_second > 0

    def test_invalid_args(self, report, windows):
        with pytest.raises(ValueError):
            measure_throughput(report.model, windows.test.X, threads=0)
        with pytest.raises(ValueError):
            measure_throughput(report.model, np.zeros((0, 13)), threads=1)

    def test_gbits_arithmetic(self):
        # The paper: ~300K req/s at 32KB objects saturates ~78 Gbit/s;
        # 2 threads cover a 40 Gbit/s link.
        assert gbits_served(300_000, 32_000) == pytest.approx(76.8)


class TestThroughputModes:
    def test_batch_capped_at_data(self, report, windows):
        point = measure_throughput(
            report.model, windows.test.X[:10], threads=1,
            batch_size=4096, min_duration=0.05,
        )
        assert point.batch_size == 10

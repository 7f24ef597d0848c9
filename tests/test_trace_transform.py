"""Tests for trace interleaving and calibration."""

import numpy as np
import pytest

from repro.trace import (
    Request,
    SyntheticConfig,
    Trace,
    calibration_report,
    fit_sizes,
    fit_zipf,
    generate_trace,
    interleave,
)


@pytest.fixture(scope="module")
def zipf_trace():
    return generate_trace(
        SyntheticConfig(
            n_requests=8000, n_objects=600, alpha=1.0,
            size_median=100, size_sigma=0.8, size_max=10_000, seed=4,
        )
    )


class TestInterleave:
    def test_merges_by_time(self):
        a = Trace([Request(0, 1, 1), Request(2, 1, 1)])
        b = Trace([Request(1, 2, 1), Request(3, 2, 1)])
        merged = interleave([a, b])
        assert [r.time for r in merged] == [0, 1, 2, 3]
        assert [r.obj for r in merged] == [1, 2, 1, 2]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            interleave([])

    def test_monotone_output(self, zipf_trace):
        other = generate_trace(
            SyntheticConfig(n_requests=2000, n_objects=100, seed=9)
        )
        merged = interleave([zipf_trace, other])
        times = merged.times
        assert (np.diff(times) >= 0).all()


class TestCalibration:
    def test_zipf_alpha_recovered(self):
        for alpha in (0.6, 1.0, 1.4):
            trace = generate_trace(
                SyntheticConfig(
                    n_requests=30_000, n_objects=500, alpha=alpha, seed=8
                )
            )
            fit = fit_zipf(trace)
            assert fit.alpha == pytest.approx(alpha, abs=0.12)

    def test_size_fit_recovers_median(self, zipf_trace):
        fit = fit_sizes(zipf_trace)
        assert 60 < fit.median < 170  # generated with median 100
        assert 0.4 < fit.sigma < 1.2  # generated with sigma 0.8

    def test_calibration_report_roundtrip(self, zipf_trace):
        """A trace generated from a calibration report resembles the
        original (closing the measurement -> generator loop)."""
        report = calibration_report(zipf_trace)
        clone = generate_trace(
            SyntheticConfig(
                n_requests=8000,
                n_objects=report["n_objects"],
                alpha=report["alpha"],
                size_median=report["size_median"],
                size_sigma=report["size_sigma"],
                size_max=report["size_max"],
                seed=99,
            )
        )
        refit = fit_zipf(clone)
        assert refit.alpha == pytest.approx(report["alpha"], abs=0.15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_zipf(Trace())
        with pytest.raises(ValueError):
            fit_sizes(Trace())

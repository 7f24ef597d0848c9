"""Tests for trace interleaving."""

import numpy as np
import pytest

from repro.trace import (
    Request,
    SyntheticConfig,
    Trace,
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

"""Tests for trace statistics."""

import pytest

from repro.trace import Request, Trace, compute_stats


class TestComputeStats:
    def test_paper_trace(self, paper_trace):
        stats = compute_stats(paper_trace)
        assert stats.n_requests == 12
        assert stats.n_objects == 4
        assert stats.footprint_bytes == 7
        assert stats.one_hit_wonder_ratio == 0.0
        # All four objects have < 5 requests.
        assert stats.under_five_requests_ratio == 1.0

    def test_one_hit_wonders_counted(self):
        t = Trace([Request(0, 1, 1), Request(1, 2, 1), Request(2, 1, 1)])
        stats = compute_stats(t)
        assert stats.one_hit_wonder_ratio == 0.5  # object 2 of 2 objects

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            compute_stats(Trace())

    def test_as_dict_complete(self, paper_trace):
        d = compute_stats(paper_trace).as_dict()
        assert d["n_requests"] == 12
        assert "p99_size" in d

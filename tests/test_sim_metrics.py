"""Tests for bootstrap confidence intervals on hit ratios."""

import numpy as np
import pytest

from repro.cache import LRUCache, RandomCache, S4LRUCache
from repro.sim import paired_bootstrap_diff, simulate
from repro.sim.metrics import _block_indices


class TestBlockIndices:
    def test_last_request_is_drawn(self):
        rng = np.random.default_rng(0)
        seen = np.zeros(1000, dtype=bool)
        for _ in range(2000):
            seen[_block_indices(1000, 100, rng)] = True
        assert seen.all()

    def test_both_starts_occur_one_past_a_block(self):
        rng = np.random.default_rng(0)
        starts = {int(_block_indices(101, 100, rng)[0]) for _ in range(200)}
        assert starts == {0, 1}


class TestPairedDiff:
    def test_clear_difference_is_significant(self, small_zipf_trace):
        """S4LRU vs random eviction is a real gap: CI excludes zero."""
        r_good = simulate(
            small_zipf_trace, S4LRUCache(400), warmup_fraction=0.0
        )
        r_bad = simulate(
            small_zipf_trace, RandomCache(400, seed=1), warmup_fraction=0.0
        )
        ci = paired_bootstrap_diff(
            r_good.hits, r_bad.hits, small_zipf_trace.sizes, block=100
        )
        assert ci.estimate > 0
        assert ci.excludes_zero()

    def test_self_difference_is_zero(self, small_zipf_trace):
        result = simulate(small_zipf_trace, LRUCache(500), warmup_fraction=0.0)
        ci = paired_bootstrap_diff(
            result.hits, result.hits, small_zipf_trace.sizes
        )
        assert ci.estimate == 0.0
        assert ci.lower == ci.upper == 0.0
        assert not ci.excludes_zero()

    def test_interval_contains_estimate(self, small_zipf_trace):
        good = simulate(small_zipf_trace, S4LRUCache(400), warmup_fraction=0.0)
        bad = simulate(small_zipf_trace, LRUCache(400), warmup_fraction=0.0)
        ci = paired_bootstrap_diff(
            good.hits, bad.hits, small_zipf_trace.sizes, seed=1
        )
        assert ci.lower <= ci.estimate <= ci.upper
        assert -1.0 <= ci.lower and ci.upper <= 1.0

    def test_more_data_narrower_interval(self):
        rng = np.random.default_rng(0)
        sizes = np.ones(8000)
        a = rng.random(8000) < 0.5
        b = rng.random(8000) < 0.5
        narrow = paired_bootstrap_diff(a, b, sizes, block=50)
        wide = paired_bootstrap_diff(a[:500], b[:500], sizes[:500], block=50)
        assert narrow.width < wide.width

    def test_deterministic_given_seed(self, small_zipf_trace):
        good = simulate(small_zipf_trace, S4LRUCache(400), warmup_fraction=0.0)
        bad = simulate(small_zipf_trace, LRUCache(400), warmup_fraction=0.0)
        sizes = small_zipf_trace.sizes
        a = paired_bootstrap_diff(good.hits, bad.hits, sizes, seed=3)
        b = paired_bootstrap_diff(good.hits, bad.hits, sizes, seed=3)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_bootstrap_diff(
                np.zeros(3, dtype=bool), np.zeros(4, dtype=bool), np.ones(3)
            )
        empty = np.zeros(0, dtype=bool)
        with pytest.raises(ValueError):
            paired_bootstrap_diff(empty, empty, np.ones(0))

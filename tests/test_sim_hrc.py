"""Tests for hit-ratio curves and cache provisioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LRUCache
from repro.sim import (
    lru_hit_ratio_curve,
    partition_cache,
    reuse_distance_bytes,
    simulate,
)
from repro.trace import Request, SyntheticConfig, Trace, generate_trace


class TestReuseDistance:
    def test_first_access_is_minus_one(self):
        t = Trace([Request(0, 1, 5), Request(1, 2, 3)])
        assert reuse_distance_bytes(t).tolist() == [-1, -1]

    def test_immediate_reuse_equals_own_size(self):
        t = Trace([Request(0, 1, 5), Request(1, 1, 5)])
        assert reuse_distance_bytes(t).tolist() == [-1, 5]

    def test_intervening_objects_counted_once(self):
        # 1, 2, 2, 1: reuse of 1 spans object 2 (3 bytes, counted once).
        t = Trace(
            [Request(0, 1, 5), Request(1, 2, 3), Request(2, 2, 3),
             Request(3, 1, 5)]
        )
        d = reuse_distance_bytes(t)
        assert d[3] == 3 + 5  # distinct bytes (obj 2) + own size

    def test_paper_trace_known_values(self, paper_trace):
        d = reuse_distance_bytes(paper_trace)
        # Request 3 is b after c: distinct bytes since b = c(1) + b(1) = 2.
        assert d[3] == 2
        # Request 5 is a after b,c,b,d: 1 + 1 + 2 + 3 = 7.
        assert d[5] == 7

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_matches_naive_computation(self, seed):
        rng = np.random.default_rng(seed)
        sizes = {o: int(rng.integers(1, 8)) for o in range(10)}
        objs = rng.integers(0, 10, size=80)
        t = Trace([Request(i, int(o), sizes[int(o)]) for i, o in enumerate(objs)])
        fast = reuse_distance_bytes(t)
        # Naive O(n^2) reference.
        for i in range(len(t)):
            prev = None
            for j in range(i - 1, -1, -1):
                if objs[j] == objs[i]:
                    prev = j
                    break
            if prev is None:
                assert fast[i] == -1
            else:
                distinct = {int(objs[k]) for k in range(prev + 1, i)}
                expected = sum(sizes[o] for o in distinct) + sizes[int(objs[i])]
                assert fast[i] == expected


class TestLRUHitRatioCurve:
    @pytest.fixture(scope="class")
    def zipf(self):
        return generate_trace(
            SyntheticConfig(
                n_requests=6000, n_objects=500, alpha=1.0,
                size_median=30, size_sigma=0.8, size_max=500, seed=6,
            )
        )

    def test_monotone_nondecreasing(self, zipf):
        curve = lru_hit_ratio_curve(zipf)
        assert (np.diff(curve.bhr) >= -1e-12).all()

    def test_bounded(self, zipf):
        curve = lru_hit_ratio_curve(zipf)
        assert curve.bhr.min() >= 0.0
        assert curve.bhr.max() <= 1.0

    def test_matches_simulation(self, zipf):
        """The analytic curve agrees with actually simulating LRU."""
        curve = lru_hit_ratio_curve(zipf)
        for cache_size in (2_000, 10_000):
            simulated = simulate(
                zipf, LRUCache(cache_size), warmup_fraction=0.0
            ).bhr
            assert curve.at(cache_size) == pytest.approx(simulated, abs=0.02)

    def test_huge_cache_reaches_compulsory_limit(self, zipf):
        curve = lru_hit_ratio_curve(zipf)
        # At the curve's right end, only compulsory misses remain.
        prv = zipf.prev_occurrence()
        compulsory_bytes = float(zipf.sizes[prv < 0].sum())
        limit = 1.0 - compulsory_bytes / float(zipf.sizes.sum())
        assert curve.bhr[-1] == pytest.approx(limit, abs=1e-9)


class TestPartitionCache:
    def _curves(self):
        hot = generate_trace(
            SyntheticConfig(
                n_requests=4000, n_objects=100, alpha=1.2,
                size_median=50, size_sigma=0.5, size_max=500, seed=1,
            )
        )
        cold = generate_trace(
            SyntheticConfig(
                n_requests=4000, n_objects=4000, alpha=0.1,
                size_median=50, size_sigma=0.5, size_max=500, seed=2,
            )
        )
        return lru_hit_ratio_curve(hot), lru_hit_ratio_curve(cold)

    def test_hot_tenant_gets_space_first(self):
        hot, cold = self._curves()
        alloc = partition_cache([hot, cold], [1.0, 1.0], total_bytes=6_000)
        assert alloc[0] > alloc[1]

    def test_allocation_within_budget(self):
        hot, cold = self._curves()
        alloc = partition_cache([hot, cold], [1.0, 1.0], total_bytes=9_999)
        assert sum(alloc) <= 9_999

    def test_beats_even_split(self):
        hot, cold = self._curves()
        budget = 6_000
        alloc = partition_cache([hot, cold], [1.0, 1.0], budget)
        optimised = hot.at(alloc[0]) + cold.at(alloc[1])
        even = hot.at(budget / 2) + cold.at(budget / 2)
        assert optimised >= even - 1e-9

    def test_validation(self):
        hot, _ = self._curves()
        with pytest.raises(ValueError):
            partition_cache([hot], [1.0, 2.0], 100)
        with pytest.raises(ValueError):
            partition_cache([hot], [1.0], 0)

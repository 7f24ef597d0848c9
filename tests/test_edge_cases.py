"""Edge-case tests across subsystems (small, fast, targeted)."""

import numpy as np
import pytest

from repro.cache import AdaptSizeCache, GDWheelCache, LRUCache
from repro.cache.adaptsize import _modelled_ohr
from repro.core import LFOOnline
from repro.gbdt import GBDTParams
from repro.opt import solve_opt, solve_segmented
from repro.sim import simulate
from repro.trace import Request, Trace


class TestAdaptSizeModel:
    """Unit tests for the Che-style OHR model behind AdaptSize tuning."""

    def test_more_cache_more_ohr(self):
        counts = np.array([10.0, 5.0, 1.0])
        sizes = np.array([100.0, 100.0, 100.0])
        small = _modelled_ohr(counts, sizes, 16, cache_size=50, c=1e6)
        large = _modelled_ohr(counts, sizes, 16, cache_size=500, c=1e6)
        assert large >= small

    def test_everything_fits_limit(self):
        """With room for all objects and admit-all c, OHR approaches the
        request-rate-weighted in-cache probability of ~1 per object."""
        counts = np.array([10.0, 10.0])
        sizes = np.array([10.0, 10.0])
        ohr = _modelled_ohr(counts, sizes, 20, cache_size=100, c=1e9)
        assert ohr == pytest.approx(1.0, abs=0.05)

    def test_small_c_filters_large_objects(self):
        counts = np.array([10.0, 10.0])
        sizes = np.array([10.0, 10_000.0])
        # c = 100: the large object is effectively never admitted.
        constrained = _modelled_ohr(counts, sizes, 20, cache_size=50, c=100.0)
        admit_all = _modelled_ohr(counts, sizes, 20, cache_size=50, c=1e9)
        assert 0.0 <= constrained <= 1.0
        assert 0.0 <= admit_all <= 1.0


class TestGDWheelEdges:
    def test_single_slot_wheel(self):
        policy = GDWheelCache(cache_size=30, n_slots=2)
        for t in range(50):
            policy.on_request(Request(float(t), t % 5, 10))
            assert policy.used_bytes <= 30

    def test_explicit_granularity(self):
        policy = GDWheelCache(cache_size=30, slot_granularity=0.5)
        policy.on_request(Request(0, 1, 10, 5.0))
        assert policy.contains(1)


class TestSingleRequestTraces:
    def test_opt_single_request(self):
        trace = Trace([Request(0, 1, 5)])
        result = solve_opt(trace, cache_size=10)
        assert not result.decisions[0]
        assert result.miss_cost == 5.0

    def test_segmented_single_request(self):
        trace = Trace([Request(0, 1, 5)])
        seg = solve_segmented(trace, 10, segment_length=10)
        assert seg.miss_cost == 5.0

    def test_simulate_single_request(self):
        trace = Trace([Request(0, 1, 5)])
        result = simulate(trace, LRUCache(10), warmup_fraction=0.0)
        assert result.ohr == 0.0


class TestObjectLargerThanWindowInteractions:
    def test_lfo_online_with_giant_objects(self):
        """Objects bigger than the cache are bypassed without breaking the
        training buffer alignment."""
        requests = []
        for t in range(600):
            if t % 10 == 0:
                requests.append(Request(float(t), 10_000 + t, 5_000))
            else:
                requests.append(Request(float(t), t % 20, 10))
        trace = Trace(requests)
        policy = LFOOnline(
            cache_size=100, window=300,
            gbdt_params=GBDTParams(num_iterations=5),
            n_gaps=5,
        )
        result = simulate(trace, policy)
        assert policy.n_retrains >= 1
        assert 0.0 <= result.bhr <= 1.0


class TestTimeTies:
    def test_simultaneous_requests_handled(self):
        """Zero inter-arrival gaps (batched arrivals) break nothing."""
        trace = Trace(
            [Request(0.0, i % 3, 10) for i in range(30)]
        )
        result = simulate(trace, LRUCache(30), warmup_fraction=0.0)
        assert result.ohr > 0.8  # everything fits, everything re-hits

    def test_opt_with_ties(self):
        trace = Trace([Request(0.0, i % 3, 1, 1.0) for i in range(12)])
        result = solve_opt(trace, cache_size=3)
        # All recurring requests cached: cache holds all three objects.
        nxt = trace.next_occurrence()
        assert (result.decisions == (nxt >= 0)).all()


class TestAdaptSizeZeroWindow:
    def test_retune_with_single_object(self):
        policy = AdaptSizeCache(cache_size=1_000, tuning_interval=10, seed=0)
        for t in range(25):
            policy.on_request(Request(float(t), 1, 50))
        assert policy.c > 0  # retuned twice without crashing

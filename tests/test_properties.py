"""Cross-cutting property-based tests on system invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import GDSFCache, LFUDACache, LRUCache
from repro.opt import decisions_to_miss_cost, solve_opt
from repro.sim import simulate
from repro.trace import CostModel, Request, Trace


def _random_trace(seed: int, n: int = 120, n_objects: int = 15) -> Trace:
    rng = np.random.default_rng(seed)
    sizes = {o: int(rng.integers(1, 12)) for o in range(n_objects)}
    objs = rng.integers(0, n_objects, size=n)
    return Trace([Request(i, int(o), sizes[int(o)]) for i, o in enumerate(objs)])


class TestOptProperties:
    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_opt_miss_cost_decreases_with_cache_size(self, seed):
        trace = _random_trace(seed)
        costs = [
            solve_opt(trace, cache_size).miss_cost
            for cache_size in (5, 15, 40, 100)
        ]
        assert costs == sorted(costs, reverse=True)

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_opt_never_beats_infinite_cache(self, seed):
        trace = _random_trace(seed)
        prv = trace.prev_occurrence()
        compulsory = float(trace.costs[prv < 0].sum())
        result = solve_opt(trace, cache_size=50)
        assert result.miss_cost >= compulsory - 1e-9

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_opt_decisions_imply_cost_at_least_optimal(self, seed):
        """Any 0/1 rounding of OPT can only cost more than the fractional
        optimum (weak duality of the relaxation)."""
        trace = _random_trace(seed)
        result = solve_opt(trace, cache_size=30)
        implied = decisions_to_miss_cost(trace, result.decisions)
        assert implied >= result.miss_cost - 1e-6

    @given(st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_no_online_policy_beats_opt(self, seed):
        """OPT's miss cost lower-bounds every implemented policy's."""
        trace = _random_trace(seed, n=200)
        cache_size = 40
        opt = solve_opt(trace, cache_size)
        sizes = trace.sizes
        for policy in (LRUCache(cache_size), GDSFCache(cache_size)):
            result = simulate(trace, policy, warmup_fraction=0.0)
            online_miss = float(sizes[~result.hits].sum())
            assert online_miss >= opt.miss_cost - 1e-6


class TestPolicyEquivalences:
    @given(st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_gdsf_equals_lfuda_under_bhr_costs(self, seed):
        """With cost == size, GDSF's priority freq*cost/size == freq, which
        is exactly LFUDA — the redundancy behind the paper's observation
        that LFO ignores the cost feature for the BHR objective."""
        trace = _random_trace(seed, n=300)
        cache_size = 60
        r_gdsf = simulate(trace, GDSFCache(cache_size), warmup_fraction=0.0)
        r_lfuda = simulate(trace, LFUDACache(cache_size), warmup_fraction=0.0)
        assert (r_gdsf.hits == r_lfuda.hits).all()

    def test_gdsf_differs_from_lfuda_under_ohr_costs(self):
        """Under unit costs the two policies genuinely diverge."""
        trace = _random_trace(7, n=400)
        ohr_trace = Trace(CostModel.apply(trace.requests, CostModel.OHR))
        cache_size = 30
        r_gdsf = simulate(ohr_trace, GDSFCache(cache_size), warmup_fraction=0.0)
        r_lfuda = simulate(
            ohr_trace, LFUDACache(cache_size), warmup_fraction=0.0
        )
        assert not (r_gdsf.hits == r_lfuda.hits).all()


class TestSimulatorProperties:
    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_bigger_cache_never_hurts_lru(self, seed):
        """LRU is a stack algorithm: hit sets grow with cache size (on
        consistent-size traces this holds for hit *counts*)."""
        trace = _random_trace(seed, n=250)
        small = simulate(trace, LRUCache(30), warmup_fraction=0.0)
        # A cache large enough for everything dominates.
        big = simulate(trace, LRUCache(10_000), warmup_fraction=0.0)
        assert big.hits.sum() >= small.hits.sum()

    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_hit_ratios_bounded(self, seed):
        trace = _random_trace(seed)
        result = simulate(trace, LRUCache(50), warmup_fraction=0.0)
        assert 0.0 <= result.bhr <= 1.0
        assert 0.0 <= result.ohr <= 1.0
        # Re-request upper bound: first requests can never hit.
        n_objects = len(np.unique(trace.objs))
        assert result.hits.sum() <= len(trace) - n_objects


class TestGBDTInvariances:
    """Structural properties of the histogram-tree learner."""

    def test_monotone_transform_invariance(self):
        """Quantile binning makes trained trees invariant to strictly
        monotone feature transforms (rank statistics are all that matter)."""
        from repro.gbdt import GBDTClassifier, GBDTParams

        rng = np.random.default_rng(0)
        X = rng.uniform(0.1, 10.0, size=(3000, 3))
        y = ((X[:, 0] > 5) ^ (X[:, 1] < 3)).astype(float)
        params = GBDTParams(num_iterations=10)
        base = GBDTClassifier(params).fit(X, y).predict_proba(X)

        X_log = X.copy()
        X_log[:, 0] = np.log(X[:, 0])  # strictly monotone
        X_log[:, 2] = X[:, 2] ** 3
        transformed = GBDTClassifier(params).fit(X_log, y).predict_proba(
            X_log
        )
        assert np.allclose(base, transformed, atol=1e-9)

    def test_label_flip_symmetry(self):
        """Swapping class labels mirrors the predicted probabilities."""
        from repro.gbdt import GBDTClassifier, GBDTParams

        rng = np.random.default_rng(1)
        X = rng.normal(size=(2000, 2))
        y = (X[:, 0] > 0).astype(float)
        params = GBDTParams(num_iterations=10)
        p = GBDTClassifier(params).fit(X, y).predict_proba(X)
        p_flipped = GBDTClassifier(params).fit(X, 1 - y).predict_proba(X)
        assert np.allclose(p, 1 - p_flipped, atol=1e-9)


class TestLFODeterminism:
    def test_full_pipeline_deterministic(self):
        """Same trace + same seeds -> bit-identical online behaviour."""
        from repro.core import LFOOnline
        from repro.gbdt import GBDTParams

        trace = _random_trace(5, n=800, n_objects=40)

        def run():
            policy = LFOOnline(
                cache_size=60, window=300,
                gbdt_params=GBDTParams(num_iterations=5),
                n_gaps=5,
            )
            return simulate(trace, policy).hits

        assert np.array_equal(run(), run())

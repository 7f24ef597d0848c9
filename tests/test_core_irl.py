"""Tests for the inverse-RL extension (linear reward learned from OPT)."""

import numpy as np
import pytest

from repro.cache import LRUCache, RandomCache
from repro.core import IRLCache, IRLOnline, LinearRewardIRL, OptLabelConfig
from repro.sim import simulate
from repro.trace import Request, SyntheticConfig, generate_trace


def _linear_demos(n=3000, seed=0, noise=0.0):
    """Demonstrations from a linearly separable expert (small -> admit)."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, 7))
    X[:, 0] = rng.integers(1, 100, size=n)       # size
    X[:, 1] = X[:, 0]                            # cost
    X[:, 2] = rng.integers(0, 1000, size=n)      # free bytes
    X[:, 3:] = rng.exponential(10, size=(n, 4))  # gaps
    admitted = X[:, 0] < 50
    if noise > 0:
        flip = rng.random(n) < noise
        admitted = admitted ^ flip
    return X, admitted


class TestLinearRewardIRL:
    def test_learns_separable_expert(self):
        X, admitted = _linear_demos()
        model = LinearRewardIRL(epochs=10).fit(X, admitted)
        assert model.agreement_with(X, admitted) > 0.95

    def test_reward_sign_semantics(self):
        X, admitted = _linear_demos()
        model = LinearRewardIRL(epochs=10).fit(X, admitted)
        small = np.zeros(7)
        small[0] = small[1] = 5
        big = np.zeros(7)
        big[0] = big[1] = 95
        assert model.reward(small)[0] > model.reward(big)[0]
        assert model.admit(small)
        assert not model.admit(big)

    def test_robust_to_label_noise(self):
        X, admitted = _linear_demos(noise=0.1, seed=3)
        model = LinearRewardIRL(epochs=10).fit(X, admitted)
        clean_X, clean_admitted = _linear_demos(seed=3)
        assert model.agreement_with(clean_X, clean_admitted) > 0.8

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            LinearRewardIRL().reward(np.zeros((1, 7)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            LinearRewardIRL().fit(np.zeros((0, 7)), np.zeros(0, dtype=bool))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearRewardIRL().fit(np.zeros((5, 7)), np.zeros(3, dtype=bool))


class TestIRLCache:
    def test_cold_start_is_lru(self):
        cache = IRLCache(cache_size=20, n_gaps=4)
        cache.on_request(Request(0, 1, 10))
        cache.on_request(Request(1, 2, 10))
        cache.on_request(Request(2, 1, 10))
        cache.on_request(Request(3, 3, 10))
        assert cache.contains(1)
        assert not cache.contains(2)

    def test_admission_follows_reward(self):
        X, admitted = _linear_demos()
        model = LinearRewardIRL(epochs=10).fit(X, admitted)
        cache = IRLCache(cache_size=1000, model=model, n_gaps=4)
        cache.on_request(Request(0, 1, 10))
        cache.on_request(Request(1, 2, 90))
        assert cache.contains(1)
        assert not cache.contains(2)

    def test_capacity_invariant(self):
        X, admitted = _linear_demos()
        model = LinearRewardIRL(epochs=5).fit(X, admitted)
        cache = IRLCache(cache_size=100, model=model, n_gaps=4)
        rng = np.random.default_rng(1)
        sizes = {}
        for t in range(300):
            obj = int(rng.integers(0, 50))
            size = sizes.setdefault(obj, int(rng.integers(1, 60)))
            cache.on_request(Request(float(t), obj, size))
            assert 0 <= cache.used_bytes <= 100

    def test_every_eviction_is_counted(self):
        """Evictions run through ``CachePolicy._evict_until_fits``
        (regression: a private eviction loop reported zero)."""
        X, admitted = _linear_demos()
        model = LinearRewardIRL(epochs=5).fit(X, admitted)
        cache = IRLCache(cache_size=100, model=model, n_gaps=4)
        removed = []
        inner = cache._remove

        def _remove(obj):
            removed.append(obj)
            inner(obj)

        cache._remove = _remove
        rng = np.random.default_rng(1)
        for t in range(300):
            obj = int(rng.integers(0, 50))
            cache.on_request(Request(float(t), obj, 10 + obj % 30))
        assert cache.n_evictions == len(removed) > 0


class TestIRLOnline:
    def test_retrains_and_beats_random(self):
        trace = generate_trace(
            SyntheticConfig(
                n_requests=4000, n_objects=500, alpha=1.1,
                size_median=20, size_sigma=1.0, size_max=400,
                locality=0.3, seed=13,
            )
        )
        cache_size = trace.footprint() // 10
        irl = IRLOnline(
            cache_size, window=1000,
            label_config=OptLabelConfig(mode="segmented", segment_length=500),
            n_gaps=10,
        )
        r_irl = simulate(trace, irl, warmup_fraction=0.25)
        r_rnd = simulate(
            trace, RandomCache(cache_size), warmup_fraction=0.25
        )
        assert irl.n_retrains >= 3
        assert r_irl.bhr > r_rnd.bhr

    def test_a_failed_fit_is_counted_not_raised(self):
        """Retraining rides the trainer's one failure sink."""
        irl = IRLOnline(cache_size=500, window=50, n_gaps=4)

        def failing(requests, features, name):
            raise RuntimeError("fit exploded")

        irl.trainer.job = failing
        with pytest.warns(RuntimeWarning, match="fit exploded"):
            for t in range(50):
                irl.on_request(Request(float(t), t % 7, 10))
        assert irl.trainer.n_failed_retrains == 1
        assert irl.n_retrains == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            IRLOnline(cache_size=100, window=0)

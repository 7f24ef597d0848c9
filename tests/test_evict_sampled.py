"""Tests for the sampled-candidate eviction engine.

Covers the minimal-overhead eviction contract: seeded determinism,
equivalence with full likelihood eviction when the sample covers every
resident, the K+1 candidate-count ceiling, the heap-minimum safety
candidate, bounded-heap compaction under churn, and the aborted-plan
restore path (composition with the decision engine:
``tests/test_engines_differential.py``, ``eviction="sampled"``).
"""

import numpy as np
import pytest

from repro.core import LFOCache, LFOModel, LFOOnline, SampledEvictionConfig
from repro.features import Dataset, FeatureTracker, feature_names
from repro.gbdt import GBDTParams
from repro.obs import MetricsRegistry, use_registry
from repro.sim import simulate
from repro.trace import Request, SyntheticConfig, Trace, generate_trace


def _toy_model(cutoff=0.5, n_gaps=4, positive_small=True):
    """A model trained to admit small objects (or large, when inverted)."""
    rng = np.random.default_rng(0)
    n = 2000
    names = feature_names(n_gaps)
    X = np.zeros((n, len(names)))
    X[:, 0] = rng.integers(1, 100, size=n)  # size
    X[:, 1] = X[:, 0]
    X[:, 2] = rng.integers(0, 1000, size=n)
    X[:, 3:] = rng.exponential(10, size=(n, n_gaps))
    if positive_small:
        y = (X[:, 0] < 50).astype(float)
    else:
        y = (X[:, 0] >= 50).astype(float)
    ds = Dataset(X, y, names)
    return LFOModel.train(
        ds, params=GBDTParams(num_iterations=10), cutoff=cutoff
    )


@pytest.fixture(scope="module")
def admit_all_model():
    """Cutoff 0 makes admission universal; eviction does all the work."""
    return _toy_model(cutoff=0.0)


def _churn_trace(n_requests=600, n_objects=80, size=None, seed=11):
    """A Zipf-ish trace; fixed ``size`` makes every plan single-victim."""
    rng = np.random.default_rng(seed)
    sizes = {}
    requests = []
    ranks = rng.zipf(1.3, size=n_requests)
    for t, rank in enumerate(ranks):
        obj = int(rank % n_objects)
        s = size if size is not None else sizes.setdefault(
            obj, int(rng.integers(5, 40))
        )
        requests.append(Request(float(t), obj, s))
    return requests


def _record_victims(policy):
    """Capture the eviction sequence by wrapping ``_remove``."""
    victims = []
    original = type(policy)._remove

    def patched(self_, obj):
        victims.append(obj)
        original(self_, obj)

    policy._remove = patched.__get__(policy)
    return victims


def _drive(policy, requests):
    return [policy.on_request(request) for request in requests]


class TestSampledConfig:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SampledEvictionConfig(k=0)

    def test_defaults(self):
        config = SampledEvictionConfig()
        assert config.k == 64
        assert config.seed == 0


class TestSeededDeterminism:
    def _policy(self, model, seed=7):
        return LFOCache(
            cache_size=300, model=model, n_gaps=4, eviction="sampled",
            sampled=SampledEvictionConfig(k=4, seed=seed),
        )

    def test_same_seed_same_victim_sequence(self, admit_all_model):
        trace = _churn_trace()
        a, b = self._policy(admit_all_model), self._policy(admit_all_model)
        victims_a, victims_b = _record_victims(a), _record_victims(b)
        hits_a, hits_b = _drive(a, trace), _drive(b, trace)
        assert victims_a  # the workload actually evicted
        assert victims_a == victims_b
        assert hits_a == hits_b

    def test_reset_reseeds_the_sampler(self, admit_all_model):
        trace = _churn_trace()
        policy = self._policy(admit_all_model, seed=13)
        victims = _record_victims(policy)
        _drive(policy, trace)
        first = list(victims)
        victims.clear()
        policy.reset()
        # The sampler restarts from its configured seed; with the feature
        # state also rewound the whole victim sequence replays exactly.
        # (``reset`` deliberately keeps the tracker: gap history is
        # request-stream state, not cache state.)
        assert np.array_equal(
            policy._rng.integers(0, 1 << 30, size=8),
            np.random.default_rng(13).integers(0, 1 << 30, size=8),
        )
        policy._rng = np.random.default_rng(13)
        policy._tracker = FeatureTracker(n_gaps=4)
        _drive(policy, trace)
        assert victims == first


class _FullRescoreLFO(LFOCache):
    """Reference eviction: freshly rescore every resident per victim pick."""

    def _select_victims(self, incoming):
        self._rescore_all()
        return super()._select_victims(incoming)


class TestFullCoverageEquivalence:
    """``k >= n_objects`` degenerates to full likelihood eviction."""

    def test_matches_full_rescore_reference(self, admit_all_model):
        # Uniform sizes: every eviction plan is consumed one victim deep,
        # so both engines compare scores taken at the same instant.
        trace = _churn_trace(size=10)
        sampled = LFOCache(
            cache_size=200, model=admit_all_model, n_gaps=4,
            eviction="sampled", sampled=SampledEvictionConfig(k=64),
        )
        reference = _FullRescoreLFO(
            cache_size=200, model=admit_all_model, n_gaps=4,
        )
        victims_s, victims_r = (
            _record_victims(sampled), _record_victims(reference)
        )
        hits_s, hits_r = _drive(sampled, trace), _drive(reference, trace)
        assert victims_s  # evictions actually happened
        assert victims_s == victims_r
        assert hits_s == hits_r
        assert set(sampled._entries) == set(reference._entries)


class TestCandidateBudget:
    def test_at_most_k_plus_one_scored_per_plan(self, admit_all_model):
        k = 4
        policy = LFOCache(
            cache_size=300, model=admit_all_model, n_gaps=4,
            eviction="sampled", sampled=SampledEvictionConfig(k=k, seed=1),
        )
        plans = []
        original = type(policy)._sampled_plan

        def patched(self_):
            plan = original(self_)
            plans.append(plan)
            return plan

        policy._sampled_plan = patched.__get__(policy)
        with use_registry(MetricsRegistry()) as registry:
            _drive(policy, _churn_trace())
            scored = registry.counter("evict.candidates_scored").value
        assert plans
        assert all(len(plan) <= k + 1 for plan in plans)
        assert scored == sum(len(plan) for plan in plans)

    def test_safety_candidate_is_heap_minimum(self, admit_all_model):
        policy = LFOCache(
            cache_size=10_000, model=admit_all_model, n_gaps=4,
            eviction="sampled", sampled=SampledEvictionConfig(k=2, seed=3),
        )
        for t in range(50):
            policy.on_request(Request(float(t), t, 10))
        assert policy.n_objects > policy.sampled_config.k
        safety = policy._ranked.peek()
        plan = policy._sampled_plan()
        # The lazily stale heap minimum always rides along, so a cold
        # object cannot dodge eviction by never being sampled...
        assert safety in plan
        # ...and sampling with replacement never inflates the plan.
        assert len(plan) == len(set(plan)) <= policy.sampled_config.k + 1

    def test_resident_list_tracks_entries(self, admit_all_model):
        policy = LFOCache(
            cache_size=300, model=admit_all_model, n_gaps=4,
            eviction="sampled", sampled=SampledEvictionConfig(k=4, seed=5),
        )
        _drive(policy, _churn_trace())
        assert set(policy._resident) == set(policy._entries)
        assert all(
            policy._resident[policy._resident_pos[obj]] == obj
            for obj in policy._entries
        )


class TestCompactionUnderChurn:
    def test_heap_stays_bounded_and_compactions_fire(self, admit_all_model):
        policy = LFOCache(
            cache_size=10_000, model=admit_all_model, n_gaps=4,
            eviction="sampled", sampled=SampledEvictionConfig(k=4, seed=2),
        )
        # Hit-heavy churn: every hit re-ranks, leaving a stale heap tuple.
        with use_registry(MetricsRegistry()) as registry:
            for t in range(4000):
                policy.on_request(Request(float(t), t % 40, 10))
                live = len(policy._ranked._stamp)
                assert len(policy._ranked._heap) <= max(64, 2 * live + 1)
            assert registry.counter("evict.compactions").value > 0


class TestColdStartAndFallback:
    def test_cold_start_sampled_behaves_like_lru(self):
        policy = LFOCache(cache_size=20, model=None, eviction="sampled")
        policy.on_request(Request(0, 1, 10))
        policy.on_request(Request(1, 2, 10))
        policy.on_request(Request(2, 1, 10))  # refresh 1
        policy.on_request(Request(3, 3, 10))  # evicts 2 (LRU)
        assert policy.contains(1)
        assert not policy.contains(2)

    def test_online_sampled_runs(self):
        trace = generate_trace(
            SyntheticConfig(
                n_requests=4000, n_objects=300, size_median=15,
                size_sigma=1.0, size_max=200, seed=9,
            )
        )
        policy = LFOOnline(
            cache_size=trace.footprint() // 10, window=1500,
            eviction="sampled", sampled=SampledEvictionConfig(k=16, seed=0),
        )
        result = simulate(trace, policy)
        assert result.bhr > 0.0
        assert policy.n_retrains >= 1


class TestAbortedSampledPlan:
    def test_refused_plan_restores_and_reranks(self, admit_all_model):
        policy = LFOCache(
            cache_size=100, model=admit_all_model, n_gaps=4,
            eviction="sampled", sampled=SampledEvictionConfig(k=8),
        )
        policy.on_request(Request(0, 1, 60))
        policy.on_request(Request(1, 2, 40))
        assert policy.used_bytes == 100
        original = type(policy)._sampled_plan
        state = {"calls": 0}

        def patched(self_):
            state["calls"] += 1
            # First round yields one victim, the retry refuses: the
            # admission needs two, so the plan must abort and restore.
            return original(self_)[:1] if state["calls"] == 1 else []

        policy._sampled_plan = patched.__get__(policy)
        assert policy.on_request(Request(2, 3, 90)) is False
        assert policy.contains(1) and policy.contains(2)
        assert not policy.contains(3)
        assert policy.used_bytes == 100
        # Restored victims are re-ranked: both stay visible to the heap,
        # and the refused admission left no live rank behind.
        assert set(policy._ranked._stamp) == {1, 2}
        assert policy._ranked.peek() in (1, 2)

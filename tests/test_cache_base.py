"""Invariant tests that every cache policy must satisfy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    AdaptSizeCache,
    GDSFCache,
    GDWheelCache,
    HyperbolicCache,
    LFUDACache,
    LHDCache,
    LRUCache,
    LRUKCache,
    RandomCache,
    RLCache,
    S4LRUCache,
    TinyLFUCache,
)
from repro.trace import Request, SyntheticConfig, Trace, generate_trace

ALL_POLICIES = [
    RandomCache,
    LRUCache,
    LRUKCache,
    LFUDACache,
    S4LRUCache,
    GDSFCache,
    GDWheelCache,
    AdaptSizeCache,
    HyperbolicCache,
    LHDCache,
    TinyLFUCache,
    RLCache,
]


def _drive(policy, trace):
    hits = []
    for request in trace:
        hits.append(policy.on_request(request))
    return np.array(hits)


@pytest.fixture(scope="module")
def drive_trace():
    return generate_trace(
        SyntheticConfig(
            n_requests=3000, n_objects=250, alpha=0.9,
            size_median=15, size_sigma=1.0, size_max=300, seed=77,
        )
    )


@pytest.mark.parametrize("policy_cls", ALL_POLICIES)
class TestPolicyInvariants:
    def test_capacity_never_exceeded(self, policy_cls, drive_trace):
        policy = policy_cls(cache_size=1000)
        for request in drive_trace:
            policy.on_request(request)
            assert policy.used_bytes <= policy.cache_size
            assert policy.used_bytes >= 0

    def test_hit_requires_prior_request(self, policy_cls, drive_trace):
        policy = policy_cls(cache_size=1000)
        seen = set()
        for request in drive_trace:
            hit = policy.on_request(request)
            if hit:
                assert request.obj in seen
            seen.add(request.obj)

    def test_oversized_object_bypassed(self, policy_cls):
        policy = policy_cls(cache_size=100)
        assert policy.on_request(Request(0, 1, 200)) is False
        assert not policy.contains(1)
        assert policy.used_bytes == 0

    def test_repeated_requests_eventually_hit(self, policy_cls):
        """Any sane policy caches a monomaniac workload."""
        policy = policy_cls(cache_size=1000)
        hits = [policy.on_request(Request(t, 1, 10)) for t in range(50)]
        assert sum(hits) >= 25  # RL explores; others hit ~49 times

    def test_used_bytes_matches_entries(self, policy_cls, drive_trace):
        policy = policy_cls(cache_size=2000)
        _drive(policy, drive_trace)
        assert policy.used_bytes == sum(policy._entries.values())
        assert policy.n_objects == len(policy._entries)

    def test_reset_clears_state(self, policy_cls, drive_trace):
        policy = policy_cls(cache_size=2000)
        _drive(policy, drive_trace[:500])
        policy.reset()
        assert policy.used_bytes == 0
        assert policy.n_objects == 0
        # The policy still works after a reset.
        policy.on_request(Request(0, 1, 10))

    def test_invalid_cache_size(self, policy_cls):
        with pytest.raises(ValueError):
            policy_cls(cache_size=0)

    def test_beats_no_cache(self, policy_cls, drive_trace):
        """Every policy gets a nonzero hit ratio on a Zipf workload with a
        reasonably sized cache."""
        policy = policy_cls(cache_size=3000)
        hits = _drive(policy, drive_trace)
        assert hits.mean() > 0.05

    def test_miss_hook_fires_once_per_miss(self, policy_cls, drive_trace):
        """Hook contract: every observed miss — refused, oversized, or
        admitted — reaches ``_on_miss_observed`` exactly once."""
        policy = policy_cls(cache_size=1000)
        observed = []
        original = policy._on_miss_observed

        def patched(request):
            observed.append(request.obj)
            original(request)

        policy._on_miss_observed = patched
        misses = sum(
            0 if policy.on_request(request) else 1
            for request in drive_trace[:800]
        )
        assert misses > 0
        assert len(observed) == misses


@pytest.mark.parametrize("policy_cls", ALL_POLICIES)
@given(seed=st.integers(0, 100))
@settings(max_examples=5, deadline=None)
def test_capacity_property_random_workloads(policy_cls, seed):
    """Capacity invariant under random workloads with huge size variance."""
    rng = np.random.default_rng(seed)
    policy = policy_cls(cache_size=500)
    sizes = {}
    for t in range(400):
        obj = int(rng.integers(0, 50))
        size = sizes.setdefault(obj, int(rng.integers(1, 400)))
        policy.on_request(Request(float(t), obj, size))
        assert 0 <= policy.used_bytes <= 500


class _ReluctantLRU(LRUCache):
    """LRU that evicts at most ``budget`` victims per admission, then
    refuses — the shape of policy that triggers a mid-plan abort."""

    def __init__(self, cache_size, budget):
        super().__init__(cache_size)
        self.budget = budget
        self._spent = 0

    def _select_victim(self, incoming):
        if self._spent >= self.budget:
            return None
        self._spent += 1
        return super()._select_victim(incoming)

    def on_request(self, request):
        self._spent = 0
        return super().on_request(request)


class TestEvictionAbortRestore:
    """A refused eviction plan must not lose the victims already removed
    (regression: partial-evict-then-bypass leaked cache contents)."""

    def _full_cache(self, budget):
        policy = _ReluctantLRU(cache_size=100, budget=budget)
        policy.on_request(Request(0, 1, 60))
        policy.on_request(Request(1, 2, 40))
        assert policy.used_bytes == 100
        return policy

    def test_aborted_plan_restores_victims(self):
        policy = self._full_cache(budget=1)
        # Object 3 needs both residents evicted; the policy gives up after
        # one, so the admission is bypassed and nothing may be lost.
        hit = policy.on_request(Request(2, 3, 80))
        assert hit is False
        assert not policy.contains(3)
        assert policy.contains(1) and policy.contains(2)
        assert policy.used_bytes == 100
        assert policy.used_bytes == sum(policy._entries.values())
        # The restored residents still hit.
        assert policy.on_request(Request(3, 1, 60)) is True
        assert policy.on_request(Request(4, 2, 40)) is True

    def test_feasible_plan_still_evicts(self):
        policy = self._full_cache(budget=2)
        policy.on_request(Request(2, 3, 80))
        assert policy.contains(3)
        assert not policy.contains(1) and not policy.contains(2)
        assert policy.used_bytes == 80

    def test_restored_victims_stay_evictable(self):
        policy = self._full_cache(budget=1)
        policy.on_request(Request(2, 3, 80))  # aborted, restored
        # With a big enough budget the same admission now succeeds: the
        # restored objects are still reachable by victim selection.
        policy.budget = 2
        policy.on_request(Request(3, 3, 80))
        assert policy.contains(3)
        assert policy.used_bytes == 80

    def test_abort_on_empty_cache_is_noop(self):
        policy = _ReluctantLRU(cache_size=100, budget=0)
        policy.on_request(Request(0, 1, 60))  # fits without eviction
        assert policy.contains(1)
        policy.on_request(Request(1, 2, 80))  # would need eviction: refused
        assert policy.contains(1) and not policy.contains(2)
        assert policy.used_bytes == 60


class _ReluctantGDSF(GDSFCache):
    """GDSF with an eviction budget, for cost-restore regression tests."""

    def __init__(self, cache_size, budget):
        super().__init__(cache_size)
        self.budget = budget
        self._spent = 0

    def _select_victim(self, incoming):
        if self._spent >= self.budget:
            return None
        self._spent += 1
        return super()._select_victim(incoming)

    def on_request(self, request):
        self._spent = 0
        return super().on_request(request)


class TestRestorePreservesCost:
    """Regression: an aborted plan used to restore victims with
    ``cost == size``, silently corrupting cost-aware priorities like
    GDSF's ``freq * cost / size``."""

    def test_base_restore_keeps_original_cost(self):
        policy = _ReluctantLRU(cache_size=100, budget=1)
        policy.on_request(Request(0, 1, 60, cost=900.0))
        policy.on_request(Request(1, 2, 40, cost=7.0))
        assert policy.entry_cost(1) == 900.0
        policy.on_request(Request(2, 3, 80))  # aborted after evicting 1
        assert policy.contains(1) and policy.contains(2)
        assert policy.entry_cost(1) == 900.0
        assert policy.entry_cost(2) == 7.0

    def test_hit_refreshes_tracked_cost(self):
        policy = LRUCache(cache_size=100)
        policy.on_request(Request(0, 1, 60, cost=900.0))
        policy.on_request(Request(1, 1, 60, cost=5.0))
        assert policy.entry_cost(1) == 5.0

    def test_gdsf_priority_survives_abort(self):
        policy = _ReluctantGDSF(cache_size=100, budget=1)
        policy.on_request(Request(0, 1, 60, cost=900.0))
        # Cheap-to-fetch object: cost/size = 0.25 makes it the victim.
        policy.on_request(Request(1, 2, 40, cost=10.0))
        policy.on_request(Request(2, 3, 90))  # needs both: aborted
        assert policy.contains(1) and policy.contains(2)
        assert policy.entry_cost(1) == 900.0
        assert policy.entry_cost(2) == 10.0
        # The restored priority is rebuilt from the *true* cost (age bumped
        # to the victim's 0.25 on eviction, freq restarts at 1): the old
        # size-fallback restore would have produced age + 1.0 instead.
        assert policy._prio[2] == pytest.approx(0.25 + 10.0 / 40)

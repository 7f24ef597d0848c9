"""Behavioural tests for individual cache policies."""

from functools import lru_cache
from hashlib import blake2b

import numpy as np
import pytest

from repro.cache import (
    AdaptSizeCache,
    CountMinSketch,
    GDSFCache,
    GDWheelCache,
    HyperbolicCache,
    LFUDACache,
    LHDCache,
    LRUCache,
    LRUKCache,
    OptReplayCache,
    RandomCache,
    RLCache,
    S4LRUCache,
    TinyLFUCache,
)
from repro.core import (
    IRLOnline, LFOCache, LFOModel, TieredLFOOnline,
)
from repro.features import Dataset, FeatureTracker, feature_names
from repro.gbdt import GBDTParams
from repro.opt import solve_greedy
from repro.sim import policy_factories, simulate
from repro.trace import (
    ContentClass,
    Request,
    SyntheticConfig,
    generate_mixed_trace,
    generate_trace,
)


def _fill(policy, objects):
    """Insert unit-interval requests for (obj, size) pairs."""
    t = 0.0
    for obj, size in objects:
        policy.on_request(Request(t, obj, size))
        t += 1.0
    return t


class TestLRU:
    def test_evicts_least_recent(self):
        policy = LRUCache(cache_size=30)
        _fill(policy, [(1, 10), (2, 10), (3, 10)])
        policy.on_request(Request(3.0, 1, 10))  # touch 1
        policy.on_request(Request(4.0, 4, 10))  # must evict 2
        assert policy.contains(1)
        assert not policy.contains(2)
        assert policy.contains(3)
        assert policy.contains(4)

    def test_hit_refreshes_recency(self):
        policy = LRUCache(cache_size=20)
        _fill(policy, [(1, 10), (2, 10)])
        policy.on_request(Request(2.0, 1, 10))
        policy.on_request(Request(3.0, 3, 10))
        assert policy.contains(1)
        assert not policy.contains(2)


class TestLRUK:
    def test_prefers_evicting_single_reference_objects(self):
        policy = LRUKCache(cache_size=30, k=2)
        # Objects 1 and 2 get two references, 3 gets one.
        _fill(policy, [(1, 10), (2, 10), (1, 10), (2, 10), (3, 10)])
        policy.on_request(Request(9.0, 4, 10))
        assert not policy.contains(3)
        assert policy.contains(1)
        assert policy.contains(2)

    def test_history_survives_eviction(self):
        """LRU-K's defining trait: reference history outlives residency."""
        policy = LRUKCache(cache_size=10, k=2)
        policy.on_request(Request(0, 1, 10))
        policy.on_request(Request(1, 2, 10))  # evicts 1, history kept
        assert not policy.contains(1)
        policy.on_request(Request(2, 1, 10))  # re-admitted with k=2 history
        assert policy.contains(1)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            LRUKCache(cache_size=10, k=0)


class TestLFUDA:
    def test_frequency_wins_over_recency(self):
        policy = LFUDACache(cache_size=20)
        _fill(policy, [(1, 10), (1, 10), (1, 10), (2, 10)])
        policy.on_request(Request(5.0, 3, 10))  # evicts 2 (freq 1), not 1
        assert policy.contains(1)
        assert not policy.contains(2)

    def test_aging_lets_new_objects_in(self):
        """Dynamic aging: an old heavy hitter cannot starve the cache
        forever, because the age offset rises with each eviction."""
        policy = LFUDACache(cache_size=20)
        for _ in range(50):
            policy.on_request(Request(0, 1, 10))
        # Stream of new objects; aging must eventually admit-and-keep one
        # long enough for a hit when re-requested immediately.
        hits = 0
        t = 100.0
        for obj in range(2, 30):
            policy.on_request(Request(t, obj, 10))
            hits += policy.on_request(Request(t + 0.5, obj, 10))
            t += 1.0
        assert hits > 0


class TestS4LRU:
    def test_promotion_on_hit(self):
        policy = S4LRUCache(cache_size=40)
        _fill(policy, [(1, 10), (2, 10)])
        policy.on_request(Request(2.0, 1, 10))
        assert policy._level_of[1] == 1
        assert policy._level_of[2] == 0

    def test_promotion_capped_at_top_level(self):
        policy = S4LRUCache(cache_size=40)
        policy.on_request(Request(0, 1, 10))
        for t in range(1, 10):
            policy.on_request(Request(float(t), 1, 10))
        assert policy._level_of[1] == 3

    def test_demotion_cascade(self):
        policy = S4LRUCache(cache_size=40)  # 10 bytes per level
        _fill(policy, [(1, 10), (1, 10)])  # object 1 now in level 1
        _fill(policy, [(2, 10), (2, 10)])  # object 2 joins level 1 -> overflow
        assert policy._level_of[2] == 1
        assert policy._level_of[1] == 0  # demoted

    def test_scan_does_not_flush_protected_levels(self):
        """One-touch scans churn level 0 but leave promoted objects alone."""
        policy = S4LRUCache(cache_size=40)
        _fill(policy, [(1, 10), (1, 10), (1, 10)])
        for obj in range(100, 130):
            policy.on_request(Request(float(obj), obj, 10))
        assert policy.contains(1)


class TestGDSF:
    def test_small_objects_preferred(self):
        """With equal frequency and cost=1, GDSF keeps small objects."""
        policy = GDSFCache(cache_size=30)
        policy.on_request(Request(0, 1, 20, 1.0))  # big
        policy.on_request(Request(1, 2, 10, 1.0))  # small
        policy.on_request(Request(2, 3, 20, 1.0))  # forces eviction
        assert not policy.contains(1)
        assert policy.contains(2)

    def test_frequency_raises_priority(self):
        policy = GDSFCache(cache_size=30)
        _fill(policy, [(1, 15), (1, 15), (1, 15), (2, 15)])
        policy.on_request(Request(5.0, 3, 15))
        assert policy.contains(1)
        assert not policy.contains(2)


class TestGDWheel:
    def test_behaves_like_gdsf_on_simple_case(self):
        policy = GDWheelCache(cache_size=30)
        policy.on_request(Request(0, 1, 20, 1.0))
        policy.on_request(Request(1, 2, 10, 1.0))
        policy.on_request(Request(2, 3, 20, 1.0))
        assert not policy.contains(1)
        assert policy.contains(2)

    def test_overflow_wheel_respilled(self):
        """Objects whose priority exceeds one revolution come back into the
        wheel once the hand wraps."""
        policy = GDWheelCache(cache_size=30, n_slots=8)
        # Build a high-frequency object whose priority overflows the wheel.
        for t in range(60):
            policy.on_request(Request(float(t), 1, 10, 10.0))
        assert policy.contains(1)
        # Churn through cheap one-touch objects to advance the hand.
        for i in range(100):
            policy.on_request(Request(100.0 + i, 1000 + i, 10, 0.001))
        # The hot object is eventually evictable (aging), cache still sane.
        assert policy.used_bytes <= policy.cache_size


class TestAdaptSize:
    def test_small_objects_admitted_more_often(self):
        policy = AdaptSizeCache(cache_size=10_000, seed=1)
        policy._c = 100.0
        small_admits = sum(
            policy._admit(Request(0, i, 10)) for i in range(300)
        )
        big_admits = sum(
            policy._admit(Request(0, i, 2000)) for i in range(300)
        )
        assert small_admits > 250
        assert big_admits == 0 or big_admits < 30

    def test_retune_moves_c(self):
        policy = AdaptSizeCache(cache_size=2000, tuning_interval=500, seed=2)
        rng = np.random.default_rng(0)
        t = 0.0
        for _ in range(600):
            obj = int(rng.integers(0, 40))
            policy.on_request(Request(t, obj, 50 + obj))
            t += 1.0
        # After one tuning interval c is data-driven, not the initial guess.
        assert policy.c != pytest.approx(2000 / 100.0)

    def test_c_exposed(self):
        policy = AdaptSizeCache(cache_size=1000)
        assert policy.c > 0


class TestHyperbolic:
    def test_priority_is_freq_over_age(self):
        policy = HyperbolicCache(cache_size=100, size_aware=False)
        policy.on_request(Request(0, 1, 10))  # clock 1: insert obj 1
        policy.on_request(Request(1, 1, 10))  # clock 2: hit, freq 2
        policy.on_request(Request(2, 2, 10))  # clock 3: insert obj 2
        policy.on_request(Request(3, 3, 10))  # clock 4: insert obj 3
        # obj 1: freq 2 over age 4-1=3; obj 2: freq 1 over age 4-3=1.
        assert policy._priority(1) == pytest.approx(2 / 3)
        assert policy._priority(2) == pytest.approx(1.0)

    def test_sampling_eviction_removes_low_priority(self):
        policy = HyperbolicCache(cache_size=30, sample_size=64, seed=0)
        _fill(policy, [(1, 10), (1, 10), (1, 10), (2, 10), (3, 10)])
        policy.on_request(Request(6.0, 4, 10))
        assert policy.contains(1)  # highest frequency survives


class TestLHD:
    def test_runs_and_reconfigures(self):
        policy = LHDCache(cache_size=300, reconfigure_interval=100)
        rng = np.random.default_rng(3)
        t = 0.0
        for _ in range(500):
            obj = int(rng.integers(0, 60))
            policy.on_request(Request(t, obj, 10 + (obj % 7)))
            t += 1.0
        assert policy.used_bytes <= 300

    def test_density_lower_for_bigger_objects(self):
        policy = LHDCache(cache_size=10_000)
        policy.on_request(Request(0, 1, 10))
        policy.on_request(Request(1, 2, 1000))
        assert policy._density(1) > policy._density(2)


class TestRLC:
    def test_learns_to_admit_hot_objects(self):
        """With enough repetition, Q values favour admitting re-used sizes."""
        policy = RLCache(cache_size=10_000, epsilon=0.2, seed=0)
        t = 0.0
        for _ in range(300):
            for obj in (1, 2, 3):
                policy.on_request(Request(t, obj, 100))
                t += 1.0
        admit_q = policy._q[:, :, 1]
        bypass_q = policy._q[:, :, 0]
        assert admit_q.max() > bypass_q.max()

    def test_delayed_reward_credited_on_hit(self):
        """The admit decision is rewarded only when the object is re-used —
        the delayed-feedback structure the paper highlights."""
        policy = RLCache(cache_size=100, epsilon=0.0, seed=0)
        policy._q[:, :, 1] = 0.1  # bias toward admitting
        policy.on_request(Request(0, 1, 10))  # miss, admitted, pending
        assert 1 in policy._pending
        assert float(policy._q.max()) == pytest.approx(0.1)
        policy.on_request(Request(1, 1, 10))  # hit: reward 1 lands
        assert 1 not in policy._pending
        assert float(policy._q.max()) > 0.1


class TestTinyLFU:
    def test_sketch_counts(self):
        sketch = CountMinSketch(width=128, depth=4)
        for _ in range(5):
            sketch.add(42)
        assert sketch.estimate(42) >= 5
        assert sketch.estimate(999) <= 1

    def test_sketch_aging_halves(self):
        sketch = CountMinSketch(width=128, depth=4, reset_interval=10)
        for _ in range(10):
            sketch.add(1)
        assert sketch.estimate(1) <= 5  # halved at the reset boundary

    def test_one_hit_wonders_rejected_when_full(self):
        policy = TinyLFUCache(cache_size=30)
        # Hot object with many requests fills history.
        for t in range(10):
            policy.on_request(Request(float(t), 1, 10))
        _fill(policy, [(2, 10), (3, 10)])
        # A cold newcomer cannot displace anything.
        policy.on_request(Request(20.0, 99, 10))
        assert not policy.contains(99) or policy.free_bytes >= 10


class TestRandom:
    def test_swap_remove_keeps_order_consistent(self):
        policy = RandomCache(cache_size=30, seed=4)
        _fill(policy, [(1, 10), (2, 10), (3, 10)])
        for t in range(50):
            policy.on_request(Request(float(10 + t), 100 + t, 10))
            assert len(policy._order) == policy.n_objects
            assert set(policy._order) == set(policy._entries)


# -- bit-identity pins --------------------------------------------------------
#
# Digests of every score-ordered policy's hits on two generated traces,
# recorded before those policies moved onto the one bounded heap
# (``repro.cache.ranked``): how a heap holds its entries may never
# change which object is evicted.

_N_GAPS = 8


@lru_cache(maxsize=None)
def _pin_trace(name):
    """``(trace, cache_size)``: a Zipf synthetic or a web + photo mix."""
    if name == "zipf":
        trace = generate_trace(SyntheticConfig(
            n_requests=4000, n_objects=600, alpha=0.9, size_median=30,
            size_sigma=1.2, size_max=600, locality=0.2, seed=26,
        ))
    else:
        web = ContentClass("web", 400, 1.1, 40, 1.0, 800, cost_median=50.0)
        photo = ContentClass("photo", 1500, 0.6, 100, 0.8, 2000)
        trace = generate_mixed_trace(
            [web, photo], [0.6, 0.4], n_requests=4000, seed=26
        )
    return trace, trace.footprint() // 10


@lru_cache(maxsize=None)
def _pin_model(name):
    """An LFO model fitted on OPT's decisions over the trace's first half."""
    trace, cache_size = _pin_trace(name)
    prefix = trace[:2000]
    tracker = FeatureTracker(n_gaps=_N_GAPS)
    rows = []
    for request in prefix:
        rows.append(np.array(tracker.features(request, cache_size)))
        tracker.update(request.obj, request.time, request.cost)
    labels = solve_greedy(prefix, cache_size).decisions
    return LFOModel.train(
        Dataset(np.vstack(rows), labels.astype(np.float64),
                feature_names(_N_GAPS)),
        GBDTParams(num_iterations=8),
    )


def _simulated(make, **kwargs):
    def run(name):
        trace, cache_size = _pin_trace(name)
        return simulate(trace, make(name, cache_size), **kwargs).hits, ()
    return run


def _opt_replay(eviction):
    def make(name, cache_size):
        # Decisions for twice the space: replayed, they must evict.
        trace, _ = _pin_trace(name)
        decisions = solve_greedy(trace, 2 * cache_size).decisions
        return OptReplayCache(cache_size, decisions, trace, eviction=eviction)
    return _simulated(make)


def _lfo(eviction, batch_size):
    return _simulated(
        lambda name, cache_size: LFOCache(
            cache_size, _pin_model(name), n_gaps=_N_GAPS, eviction=eviction
        ),
        batch_size=batch_size,
    )


def _irl_online(name):
    trace, cache_size = _pin_trace(name)
    policy = IRLOnline(cache_size, window=1000, n_gaps=_N_GAPS)
    return simulate(trace, policy).hits, (policy.n_retrains,)


def _tiered_online(name):
    trace, cache_size = _pin_trace(name)
    policy = TieredLFOOnline(
        cache_size // 4, cache_size - cache_size // 4, window=1000,
        ram_horizon=200, gbdt_params=GBDTParams(num_iterations=8),
        n_gaps=_N_GAPS,
    )
    hits = [policy.on_request(request) for request in trace]
    stats = policy.stats
    return np.array(hits), (
        stats.ram_hits, stats.ssd_hits, stats.misses, policy.n_retrains,
    )


_PIN_RUNS = {
    **{
        name: _simulated(lambda _n, size, factory=factory: factory(size))
        for name, factory in policy_factories().items()
    },
    "OPT-replay-belady": _opt_replay("belady"),
    "OPT-replay-lru": _opt_replay("lru"),
    "IRL-online": _irl_online,
    "LFO-tiered-online": _tiered_online,
    **{
        f"LFO-{eviction}{suffix}": _lfo(eviction, batch_size)
        for eviction in ("likelihood", "lru", "sampled")
        for suffix, batch_size in (("", 0), ("-b64", 64))
    },
}


def pin_digest(trace_name, policy_name):
    """16 hex digits over the packed hit vector and the extra counters."""
    hits, extra = _PIN_RUNS[policy_name](trace_name)
    digest = blake2b(digest_size=8)
    digest.update(np.packbits(np.asarray(hits, dtype=bool)).tobytes())
    digest.update(repr(extra).encode())
    return digest.hexdigest()


PIN_DIGESTS = {
    ('zipf', 'RND'): '0b6406170577d516',
    ('zipf', 'LRU'): '559a99c6cbdec9b0',
    ('zipf', 'LRU-K'): '85b97b87affb91ce',
    ('zipf', 'LFUDA'): '63d861f11f755766',
    ('zipf', 'S4LRU'): '6275efeeb959b06d',
    ('zipf', 'GDSF'): '63d861f11f755766',
    ('zipf', 'GD-Wheel'): '1161f3d6d29d182e',
    ('zipf', 'AdaptSize'): 'ce45cfbed2cc1eb4',
    ('zipf', 'Hyperbolic'): '2b93c64843e0b8ea',
    ('zipf', 'LHD'): 'f4129966bb8a399e',
    ('zipf', 'TinyLFU'): 'c659ea92a7f88cfe',
    ('zipf', 'RLC'): '0718998a108e9410',
    ('zipf', 'OPT-replay-belady'): '971fa5c5c7add58b',
    ('zipf', 'OPT-replay-lru'): '5d56aa563e5080be',
    ('zipf', 'IRL-online'): 'ae09b732a8972f3c',
    ('zipf', 'LFO-tiered-online'): '22bf04c771a54969',
    ('zipf', 'LFO-likelihood'): 'e944316e8a4b0bd8',
    ('zipf', 'LFO-likelihood-b64'): 'e944316e8a4b0bd8',
    ('zipf', 'LFO-lru'): '9980ef21969e4014',
    ('zipf', 'LFO-lru-b64'): '9980ef21969e4014',
    ('zipf', 'LFO-sampled'): 'e41bbed4048898dc',
    ('zipf', 'LFO-sampled-b64'): 'e41bbed4048898dc',
    ('mix', 'RND'): '35a20418295c0c57',
    ('mix', 'LRU'): '903a43a40b236d41',
    ('mix', 'LRU-K'): 'b479c5b697a52472',
    ('mix', 'LFUDA'): '336fb7e02539a1df',
    ('mix', 'S4LRU'): '1c1bf0662c984fc5',
    ('mix', 'GDSF'): 'e5fba20abbc46868',
    ('mix', 'GD-Wheel'): '56e590445871bbf8',
    ('mix', 'AdaptSize'): '2552662f1e2f0d2b',
    ('mix', 'Hyperbolic'): '884f3a89b1256b9a',
    ('mix', 'LHD'): 'a484e7c69986c624',
    ('mix', 'TinyLFU'): 'da0186328cf6dcf6',
    ('mix', 'RLC'): '16b8d0842b33bcee',
    ('mix', 'OPT-replay-belady'): '1810d59613fd461c',
    ('mix', 'OPT-replay-lru'): '52a932380f23cf93',
    ('mix', 'IRL-online'): '3ff2d2c10ae70ae2',
    ('mix', 'LFO-tiered-online'): 'cfdf8e76598d5c01',
    ('mix', 'LFO-likelihood'): 'd6a45c8b40d2f8db',
    ('mix', 'LFO-likelihood-b64'): 'd6a45c8b40d2f8db',
    ('mix', 'LFO-lru'): 'd79248415fbcdbe4',
    ('mix', 'LFO-lru-b64'): 'd79248415fbcdbe4',
    ('mix', 'LFO-sampled'): '8794fc412d113903',
    ('mix', 'LFO-sampled-b64'): '8794fc412d113903',
}


@pytest.mark.parametrize("trace_name", ["zipf", "mix"])
@pytest.mark.parametrize("policy_name", list(_PIN_RUNS))
def test_hits_match_the_recorded_digest(trace_name, policy_name):
    assert pin_digest(trace_name, policy_name) == (
        PIN_DIGESTS[trace_name, policy_name]
    )

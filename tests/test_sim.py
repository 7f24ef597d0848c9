"""Tests for the simulation runner and comparison harness."""

import numpy as np
import pytest

from repro.cache import LRUCache, OptReplayCache, RandomCache
from repro.opt import opt_hit_ratios, solve_opt
from repro.sim import (
    compare_policies,
    format_table,
    policy_factories,
    record_free_bytes,
    simulate,
)
from repro.trace import Request, Trace


class TestSimulate:
    def test_hit_ratio_accounting(self):
        # Two objects fit; second round of requests all hit.
        t = Trace(
            [Request(i, obj, 10) for i, obj in enumerate([1, 2, 1, 2, 1, 2])]
        )
        result = simulate(t, LRUCache(cache_size=20), warmup_fraction=0.0)
        assert result.hits.tolist() == [False, False, True, True, True, True]
        assert result.ohr == pytest.approx(4 / 6)
        assert result.bhr == pytest.approx(4 / 6)

    def test_warmup_excluded(self):
        t = Trace(
            [Request(i, obj, 10) for i, obj in enumerate([1, 2, 1, 2, 1, 2])]
        )
        result = simulate(t, LRUCache(cache_size=20), warmup_fraction=0.5)
        assert result.ohr == 1.0  # last three requests all hit
        assert result.ohr_full == pytest.approx(4 / 6)

    def test_bhr_weights_by_size(self):
        t = Trace(
            [
                Request(0, 1, 90),
                Request(1, 2, 10),
                Request(2, 1, 90),  # hit: 90 of the last 100 bytes
            ]
        )
        result = simulate(t, LRUCache(cache_size=200), warmup_fraction=0.0)
        assert result.bhr == pytest.approx(90 / 190)
        assert result.ohr == pytest.approx(1 / 3)

    def test_series_windows(self, small_zipf_trace):
        result = simulate(
            small_zipf_trace, LRUCache(cache_size=1000), series_window=500
        )
        assert len(result.series) == len(small_zipf_trace) // 500
        assert ((result.series >= 0) & (result.series <= 1)).all()

    def test_observer_called(self, small_zipf_trace):
        events = []
        simulate(
            small_zipf_trace,
            LRUCache(cache_size=500),
            on_request=lambda i, hit: events.append((i, hit)),
        )
        assert len(events) == len(small_zipf_trace)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            simulate(Trace(), LRUCache(10))


class TestRecordFreeBytes:
    def test_free_bytes_observed_before_request(self):
        t = Trace([Request(0, 1, 30), Request(1, 2, 40)])
        free = record_free_bytes(t, LRUCache(cache_size=100))
        assert free.tolist() == [100, 70]

    def test_never_negative(self, small_zipf_trace):
        free = record_free_bytes(small_zipf_trace, LRUCache(cache_size=300))
        assert (free >= 0).all()


class TestComparison:
    def test_all_policies_run(self, small_zipf_trace):
        results = compare_policies(
            small_zipf_trace, cache_size=500,
            factories=policy_factories(["LRU", "RND", "GDSF"]),
        )
        assert set(results) == {"LRU", "RND", "GDSF"}

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            policy_factories(["LRU", "NOPE"])

    def test_factories_are_the_paper_set(self):
        """Figure 1 (RND, LRU, RLC, GDSF) and Figure 6, in table order."""
        assert list(policy_factories()) == [
            "RND", "LRU", "LRU-K", "LFUDA", "S4LRU", "GDSF", "GD-Wheel",
            "AdaptSize", "Hyperbolic", "LHD", "TinyLFU", "RLC",
        ]

    def test_format_table_sorted(self, small_zipf_trace):
        results = compare_policies(
            small_zipf_trace, cache_size=500,
            factories=policy_factories(["LRU", "RND"]),
        )
        table = format_table(results)
        lines = table.splitlines()
        assert lines[0].startswith("policy")
        assert len(lines) == 3

    def test_format_table_invalid_sort(self, small_zipf_trace):
        results = compare_policies(
            small_zipf_trace, cache_size=500,
            factories=policy_factories(["LRU"]),
        )
        with pytest.raises(ValueError):
            format_table(results, sort_by="latency")


class TestOptReplay:
    def test_opt_replay_beats_lru(self, small_zipf_trace):
        cache = 500
        opt = solve_opt(small_zipf_trace, cache)
        replay = OptReplayCache(
            cache, opt.decisions, small_zipf_trace, eviction="belady"
        )
        r_opt = simulate(small_zipf_trace, replay, warmup_fraction=0.0)
        r_lru = simulate(
            small_zipf_trace, LRUCache(cache), warmup_fraction=0.0
        )
        assert r_opt.bhr > r_lru.bhr

    def test_opt_replay_close_to_flow_accounting(self, small_zipf_trace):
        """Replaying OPT's decisions approaches the flow-model hit ratio
        (they differ slightly because the flow model is fractional)."""
        cache = 500
        opt = solve_opt(small_zipf_trace, cache)
        flow_bhr, _ = opt_hit_ratios(small_zipf_trace, opt)
        replay = OptReplayCache(
            cache, opt.decisions, small_zipf_trace, eviction="belady"
        )
        sim_bhr = simulate(
            small_zipf_trace, replay, warmup_fraction=0.0
        ).bhr
        assert sim_bhr >= 0.8 * flow_bhr

    def test_misaligned_decisions_rejected(self, small_zipf_trace):
        with pytest.raises(ValueError):
            OptReplayCache(100, np.zeros(5, dtype=bool), small_zipf_trace)

    def test_extra_requests_rejected(self, paper_trace):
        replay = OptReplayCache(
            10, np.zeros(len(paper_trace), dtype=bool), paper_trace
        )
        for r in paper_trace:
            replay.on_request(r)
        with pytest.raises(IndexError):
            replay.on_request(Request(99, 1, 1))

    def test_admit_none_never_caches(self, paper_trace):
        replay = OptReplayCache(
            100, np.zeros(len(paper_trace), dtype=bool), paper_trace
        )
        result = simulate(paper_trace, replay, warmup_fraction=0.0)
        assert result.ohr == 0.0

    def test_lru_eviction_mode(self, small_zipf_trace):
        cache = 300
        opt = solve_opt(small_zipf_trace, cache)
        replay = OptReplayCache(
            cache, opt.decisions, small_zipf_trace, eviction="lru"
        )
        result = simulate(small_zipf_trace, replay, warmup_fraction=0.0)
        assert 0.0 <= result.bhr <= 1.0

    def test_invalid_eviction_mode(self, paper_trace):
        with pytest.raises(ValueError):
            OptReplayCache(10, np.zeros(12, dtype=bool), paper_trace,
                           eviction="fifo")


class TestCostHitRatio:
    def test_chr_equals_bhr_under_byte_costs(self, small_zipf_trace):
        result = simulate(small_zipf_trace, LRUCache(500))
        assert result.chr == pytest.approx(result.bhr)

    def test_chr_weights_by_cost(self):
        # Two objects, same size, 10x different cost; only the cheap one
        # ever hits.
        reqs = [
            Request(0, 1, 10, 1.0),
            Request(1, 2, 10, 10.0),
            Request(2, 1, 10, 1.0),   # hit (cost 1)
        ]
        t = Trace(reqs)
        result = simulate(t, LRUCache(20), warmup_fraction=0.0)
        assert result.chr == pytest.approx(1.0 / 12.0)
        assert result.bhr == pytest.approx(1.0 / 3.0)

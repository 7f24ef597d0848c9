"""Tests for OPT scaling approximations (time-axis and ranking-axis)."""

import numpy as np
import pytest

from repro.opt import (
    rank_requests,
    solve_opt,
    solve_pruned,
    solve_segmented,
)
from repro.trace import Request, Trace


class TestSolveSegmented:
    def test_single_segment_equals_exact(self, small_zipf_trace):
        cache = 500
        exact = solve_opt(small_zipf_trace, cache)
        seg = solve_segmented(small_zipf_trace, cache, len(small_zipf_trace))
        assert (seg.decisions == exact.decisions).all()
        # Segmented miss cost is decision-based accounting: above the flow
        # objective by at most the partially-cached intervals' hit value.
        partial = (exact.cached_fraction > 0) & (exact.cached_fraction < 1)
        slack = float(
            (small_zipf_trace.costs * exact.cached_fraction)[partial].sum()
        )
        assert seg.miss_cost >= exact.miss_cost - 1e-9
        assert seg.miss_cost <= exact.miss_cost + slack + 1e-6
        assert seg.n_segments == 1

    def test_miss_cost_upper_bounds_exact(self, small_zipf_trace):
        """Cutting the trace can only forbid caching opportunities."""
        cache = 500
        exact = solve_opt(small_zipf_trace, cache)
        for seg_len in (200, 500, 1000):
            seg = solve_segmented(small_zipf_trace, cache, seg_len)
            assert seg.miss_cost >= exact.miss_cost - 1e-9

    def test_high_agreement_with_exact(self, small_zipf_trace):
        cache = 500
        exact = solve_opt(small_zipf_trace, cache)
        seg = solve_segmented(small_zipf_trace, cache, 500)
        agreement = (seg.decisions == exact.decisions).mean()
        assert agreement > 0.85

    def test_segment_count(self, small_zipf_trace):
        seg = solve_segmented(small_zipf_trace, 500, 300)
        assert seg.n_segments == int(np.ceil(len(small_zipf_trace) / 300))

    def test_invalid_segment_length(self, small_zipf_trace):
        with pytest.raises(ValueError):
            solve_segmented(small_zipf_trace, 500, 0)


class TestSolvedRequestsAccounting:
    def test_counts_lookahead_overlap(self, small_zipf_trace):
        """solved_requests is the work done: core + lookahead per segment."""
        n = len(small_zipf_trace)
        plain = solve_segmented(small_zipf_trace, 500, 500, lookahead=0)
        assert plain.solved_requests == n
        overlap = solve_segmented(small_zipf_trace, 500, 500, lookahead=250)
        # 4 segments; the first three re-solve 250 lookahead requests each,
        # the last one ends at the trace boundary.
        assert overlap.solved_requests == n + 3 * 250

    def test_single_segment_counts_once(self, small_zipf_trace):
        n = len(small_zipf_trace)
        seg = solve_segmented(small_zipf_trace, 500, n)
        assert seg.solved_requests == n


class TestRankRequests:
    def test_non_recurring_rank_zero(self, paper_trace):
        rank = rank_requests(paper_trace)
        nxt = paper_trace.next_occurrence()
        assert (rank[nxt < 0] == 0).all()
        assert (rank[nxt >= 0] > 0).all()

    def test_rank_formula(self, paper_trace):
        """rank = C / (S * L) with L the distance to the next request."""
        rank = rank_requests(paper_trace)
        # Request 0 is 'a' (size 3, cost 3), next at index 5 -> L = 5.
        assert rank[0] == pytest.approx(3.0 / (3.0 * 5.0))
        # Request 1 is 'b' (size 1, cost 1), next at 3 -> L = 2.
        assert rank[1] == pytest.approx(1.0 / (1.0 * 2.0))

    def test_closer_reuse_ranks_higher(self):
        t = Trace(
            [
                Request(0, 1, 10),
                Request(1, 2, 10),
                Request(2, 2, 10),
                Request(3, 1, 10),
            ]
        )
        rank = rank_requests(t)
        assert rank[1] > rank[0]  # object 2 reused sooner than object 1


class TestSolvePruned:
    def test_keep_all_equals_exact(self, small_zipf_trace):
        cache = 500
        exact = solve_opt(small_zipf_trace, cache)
        pruned = solve_pruned(small_zipf_trace, cache, keep_fraction=1.0)
        assert (pruned.decisions == exact.decisions).all()

    def test_pruned_requests_labelled_not_cached(self, small_zipf_trace):
        pruned = solve_pruned(small_zipf_trace, 500, keep_fraction=0.05)
        rank = rank_requests(small_zipf_trace)
        # Lowest-rank recurring requests that were pruned must be False
        # (kept set may include next-occurrence closures, so test the tail).
        lowest = np.argsort(rank)[: len(rank) // 4]
        non_recurring = rank[lowest] == 0
        assert not pruned.decisions[lowest[non_recurring]].any()

    def test_solved_requests_shrinks(self, small_zipf_trace):
        full = solve_pruned(small_zipf_trace, 500, keep_fraction=1.0)
        tiny = solve_pruned(small_zipf_trace, 500, keep_fraction=0.1)
        assert tiny.solved_requests < full.solved_requests

    def test_decisions_subset_of_keepable(self, small_zipf_trace):
        """Pruning can only admit requests that recur."""
        pruned = solve_pruned(small_zipf_trace, 500, keep_fraction=0.3)
        nxt = small_zipf_trace.next_occurrence()
        assert not pruned.decisions[nxt < 0].any()

    def test_high_recall_on_admitted(self, small_zipf_trace):
        """Moderate pruning keeps most of OPT's admissions (the paper's
        claim that highly ranked requests are the ones that matter)."""
        cache = 500
        exact = solve_opt(small_zipf_trace, cache)
        pruned = solve_pruned(small_zipf_trace, cache, keep_fraction=0.7)
        admitted = exact.decisions
        recall = (
            (pruned.decisions & admitted).sum() / max(1, admitted.sum())
        )
        assert recall > 0.7

    def test_invalid_fraction(self, small_zipf_trace):
        with pytest.raises(ValueError):
            solve_pruned(small_zipf_trace, 500, keep_fraction=0.0)
        with pytest.raises(ValueError):
            solve_pruned(small_zipf_trace, 500, keep_fraction=1.5)

    def test_with_segmentation(self, small_zipf_trace):
        pruned = solve_pruned(
            small_zipf_trace, 500, keep_fraction=0.5, segment_length=300
        )
        assert pruned.n_segments > 1
        assert len(pruned.decisions) == len(small_zipf_trace)

"""Scaling OPT to long traces: segmentation and ranking-axis pruning.

The paper (Section 2.1) notes that solving the min-cost flow over millions
of requests takes hours, and that [8] splits the trace along the *time*
axis.  Its own contribution is to instead split the requests along a
*ranking* axis — solve the flow problem only for highly ranked requests,
where rank is ``C_i / (S_i * L_i)`` (cost over size times distance to next
request).  This keeps about the top 10% of requests and "saves 90% of the
calculation time" while barely moving the decisions that matter.

Both approximations are implemented here, each returning labels aligned
with the original trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .._native import fan_out
from ..trace import Trace
from .mincost import OptResult, solve_opt

__all__ = [
    "SegmentedOptResult",
    "solve_segmented",
    "rank_requests",
    "solve_pruned",
]


@dataclass(frozen=True)
class SegmentedOptResult:
    """OPT decisions assembled from independent sub-solves.

    Attributes:
        decisions: per-request admission labels aligned with the input trace.
        miss_cost: summed miss cost of the sub-solves (an *upper bound* on
            the true OPT miss cost: cutting the trace forbids caching across
            segment boundaries).
        n_segments: how many sub-problems were solved.
        solved_requests: how many requests participated in a flow solve,
            counting lookahead overlap once per segment that solves it (so
            with ``lookahead > 0`` this exceeds the trace length — it is the
            work actually done, the denominator of "calculation saved").
    """

    decisions: np.ndarray
    miss_cost: float
    n_segments: int
    solved_requests: int


def decisions_to_miss_cost(trace: Trace, decisions: np.ndarray) -> float:
    """Miss cost implied by a per-request admission-decision vector.

    Every first request is a compulsory miss; every recurring interval that
    is not cached makes the *next* request of the object a miss (costing the
    object's retrieval cost).  For exact OPT decisions this equals
    :attr:`repro.opt.mincost.OptResult.miss_cost` (modulo the rare
    fractional intervals of the flow relaxation).
    """
    if len(decisions) != len(trace):
        raise ValueError("decisions length must match trace length")
    nxt = trace.next_occurrence()
    prv = trace.prev_occurrence()
    costs = trace.costs
    total = float(costs[prv < 0].sum())  # compulsory misses
    recurring = nxt >= 0
    missed = recurring & ~np.asarray(decisions, dtype=bool)
    total += float(costs[missed].sum())
    return total


def solve_segmented(
    trace: Trace,
    cache_size: int,
    segment_length: int,
    lookahead: int | None = None,
) -> SegmentedOptResult:
    """Time-axis approximation: solve OPT independently per segment.

    This is the approximation of [8] that the paper's ranking-axis split
    improves upon; it is exposed both as a practical label generator and as
    the baseline of the ablation benchmark.

    Args:
        trace: the full window.
        cache_size: cache capacity in bytes.
        segment_length: requests per independently solved segment.
        lookahead: extra requests appended to each segment before solving
            (labels are only kept for the segment core).  This removes the
            boundary artefact where a request whose next occurrence falls
            just past the segment end is mislabelled "not cached".  Default:
            ``segment_length // 2``.  Pass 0 for the plain (hard-cut)
            approximation of [8].
    """
    if segment_length <= 0:
        raise ValueError("segment_length must be positive")
    if lookahead is None:
        lookahead = segment_length // 2
    if lookahead < 0:
        raise ValueError("lookahead must be non-negative")
    decisions = np.zeros(len(trace), dtype=bool)
    starts = range(0, len(trace), segment_length)
    windows = [trace[start : start + segment_length + lookahead] for start in starts]
    # Independent solves, their augmentation loops GIL-free: idle cores
    # take some (labels do not depend on which thread solved what).
    results = fan_out(partial(solve_opt, cache_size=cache_size), windows)
    for start, result in zip(starts, results):
        decisions[start : start + segment_length] = result.decisions[:segment_length]
    return SegmentedOptResult(
        decisions=decisions,
        miss_cost=decisions_to_miss_cost(trace, decisions),
        n_segments=len(windows),
        solved_requests=sum(len(window) for window in windows),
    )


def rank_requests(trace: Trace) -> np.ndarray:
    """The paper's ranking function ``C_i / (S_i * L_i)`` per request.

    ``L_i`` is the distance (in requests) to the next request of the same
    object; requests whose object never recurs get rank 0 (they can never
    produce a hit, so OPT never caches them).
    """
    nxt = trace.next_occurrence()
    idx = np.arange(len(trace))
    distance = np.where(nxt >= 0, nxt - idx, 0).astype(np.float64)
    sizes = trace.sizes.astype(np.float64)
    costs = trace.costs
    with np.errstate(divide="ignore", invalid="ignore"):
        rank = np.where(distance > 0, costs / (sizes * distance), 0.0)
    return rank


def solve_pruned(
    trace: Trace,
    cache_size: int,
    keep_fraction: float = 0.1,
    segment_length: int | None = None,
) -> SegmentedOptResult:
    """Ranking-axis approximation (the paper's Section 2.1 contribution).

    Keeps the ``keep_fraction`` highest-ranked requests *plus* the next
    occurrence of each kept request (so every kept interval has both
    endpoints), solves OPT on that sub-trace, and labels all pruned requests
    as not cached.

    Args:
        trace: the full window.
        cache_size: cache capacity in bytes.
        keep_fraction: fraction of requests (by rank) to keep in the solve.
        segment_length: optionally further split the kept sub-trace along
            the time axis.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    n = len(trace)
    rank = rank_requests(trace)
    recurring = rank > 0
    n_recurring = int(recurring.sum())
    keep_count = max(1, int(round(keep_fraction * n)))
    keep_count = min(keep_count, n_recurring)
    if keep_count == 0:
        return SegmentedOptResult(
            decisions=np.zeros(n, dtype=bool),
            miss_cost=float(trace.costs.sum()),
            n_segments=0,
            solved_requests=0,
        )

    order = np.argsort(-rank, kind="stable")
    kept = set(int(i) for i in order[:keep_count])
    # Close intervals: include the next occurrence of each kept request so
    # the sub-trace preserves the (first, next) pairing of its intervals.
    nxt = trace.next_occurrence()
    for i in list(kept):
        j = int(nxt[i])
        if j >= 0:
            kept.add(j)

    kept_sorted = sorted(kept)
    sub = Trace([trace.requests[i] for i in kept_sorted], name=f"{trace.name}|pruned")

    if segment_length is None:
        result = solve_opt(sub, cache_size)
        sub_decisions = result.decisions
        miss_cost = result.miss_cost
        n_segments = 1
    else:
        seg = solve_segmented(sub, cache_size, segment_length)
        sub_decisions = seg.decisions
        miss_cost = seg.miss_cost
        n_segments = seg.n_segments

    decisions = np.zeros(n, dtype=bool)
    for local, original in enumerate(kept_sorted):
        decisions[original] = sub_decisions[local]
    # Pruned recurring requests are labelled "not cached"; their misses are
    # added to the cost bound.
    pruned_recurring = [
        i for i in range(n) if recurring[i] and i not in kept
    ]
    miss_cost += float(trace.costs[pruned_recurring].sum()) if pruned_recurring else 0.0
    return SegmentedOptResult(
        decisions=decisions,
        miss_cost=miss_cost,
        n_segments=n_segments,
        solved_requests=len(kept_sorted),
    )

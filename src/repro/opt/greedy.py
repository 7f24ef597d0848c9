"""Greedy interval-packing approximation of OPT.

Offline caching has an equivalent *interval* view: every pair of
consecutive requests to the same object is an interval that can be
"cached" — saving the object's retrieval cost but occupying its size in
bytes for the interval's whole span.  OPT picks the max-savings feasible
set; the min-cost flow solves this exactly, and the approximation
algorithms the paper cites ([3, 5, 35]) attack the same packing problem.

This module implements the natural greedy: consider intervals in order of
the paper's own ranking function ``C_i / (S_i * L_i)`` (savings per
byte-timestep) and accept an interval when capacity remains over its whole
span.  It is orders of magnitude faster than the flow solve, produces a
*feasible* decision vector (so its miss cost upper-bounds OPT's), and
serves both as a cross-check on the exact solver and as the default
label generator of the online loop (``OptLabelConfig()``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..trace import Trace
from .segmentation import decisions_to_miss_cost, rank_requests

__all__ = ["GreedyOptResult", "solve_greedy"]


@dataclass(frozen=True)
class GreedyOptResult:
    """Decisions of the greedy interval packing.

    Attributes:
        decisions: per-request admission labels (feasible by construction).
        miss_cost: implied miss cost (an upper bound on OPT's).
        accepted: number of intervals packed.
    """

    decisions: np.ndarray
    miss_cost: float
    accepted: int


def solve_greedy(trace: Trace, cache_size: int) -> GreedyOptResult:
    """Pack recurring intervals greedily by rank under the byte budget."""
    if cache_size <= 0:
        raise ValueError("cache size must be positive")
    n = len(trace)
    if n == 0:
        raise ValueError("cannot solve an empty trace")
    nxt = trace.next_occurrence()
    sizes = trace.sizes
    rank = rank_requests(trace)

    order = np.argsort(-rank, kind="stable")
    # Remaining capacity per time step (between request t and t+1).
    capacity = np.full(max(n - 1, 1), float(cache_size))
    decisions = np.zeros(n, dtype=bool)
    accepted = 0
    for i in order:
        i = int(i)
        j = int(nxt[i])
        if j < 0:
            break  # ranks are sorted: the rest never recur
        size = float(sizes[i])
        span = capacity[i:j]
        if span.min() >= size:
            span -= size
            decisions[i] = True
            accepted += 1
    return GreedyOptResult(
        decisions=decisions,
        miss_cost=decisions_to_miss_cost(trace, decisions),
        accepted=accepted,
    )

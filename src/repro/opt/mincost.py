"""Offline optimal caching (OPT) via min-cost flow.

This implements the encoding of Figure 4 of the paper (following Berger,
Beckmann, Harchol-Balter, SIGMETRICS 2018):

* one graph node per request, in trace order;
* *central* arcs between consecutive nodes with capacity equal to the cache
  size and zero cost — a unit of flow on a central arc is a byte stored in
  the cache over that time step;
* *bypass* arcs between consecutive requests to the same object with
  capacity equal to the object size and per-unit cost ``cost/size`` — a unit
  of flow on a bypass arc is a byte fetched from the origin (a miss);
* supply equal to the object size at its first request, matching demand at
  its last request.

The min-cost solution routes each object's bytes either through the cache
(central path) or around it (bypass); the bypass flow of the interval
starting at request *i* tells us whether OPT keeps the object cached until
its next request — exactly the label LFO trains on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flow import FlowNetwork, solve_min_cost_flow
from ..trace import Trace

__all__ = ["OptResult", "build_opt_network", "solve_opt", "opt_hit_ratios"]


@dataclass(frozen=True)
class OptResult:
    """OPT's decisions and performance for one trace window.

    Attributes:
        decisions: per-request boolean, True when OPT keeps the requested
            object in cache until its next request (the admission label LFO
            learns).  Requests whose object never recurs are always False.
        cached_fraction: per-request fraction of the object's bytes that OPT
            routes through the cache for the upcoming interval; in theory
            the min-cost solution is all-or-nothing for nearly every
            interval (paper, footnote 2), so this is almost always 0 or 1.
        hit_bytes: per-request bytes served from cache (non-zero only when
            the *previous* interval of the object was cached).
        miss_cost: total retrieval cost paid by OPT, including compulsory
            first-request misses.
        flow_cost: objective value of the min-cost flow (miss cost over
            recurring intervals only).
        augmentations: solver iterations (diagnostic).
    """

    decisions: np.ndarray
    cached_fraction: np.ndarray
    hit_bytes: np.ndarray
    miss_cost: float
    flow_cost: float
    augmentations: int


def build_opt_network(
    trace: Trace, cache_size: int
) -> tuple[FlowNetwork, dict[int, int]]:
    """Build the min-cost flow instance for a trace window.

    Returns:
        The network and a mapping ``request index -> bypass arc index`` for
        every request that has a next occurrence.
    """
    if cache_size <= 0:
        raise ValueError("cache size must be positive")
    n = len(trace)
    if n == 0:
        raise ValueError("cannot build OPT network for an empty trace")

    sizes = trace.sizes
    costs = trace.costs
    nxt = trace.next_occurrence()
    prv = trace.prev_occurrence()

    # Arc order is part of the labels (it breaks the solver's ties):
    # the n - 1 central arcs first, then one bypass arc per recurring
    # request, in trace order.
    opens = np.flatnonzero(nxt >= 0)
    chain = np.arange(n - 1, dtype=np.int64)
    network = FlowNetwork(n)
    first_bypass = network.add_arcs(
        np.concatenate((chain, opens)),
        np.concatenate((chain + 1, nxt[opens])),
        [cache_size] * (n - 1) + sizes[opens].tolist(),
        np.concatenate((np.zeros(n - 1), costs[opens] / sizes[opens])),
    ) + 2 * (n - 1)
    bypass_arc = dict(zip(
        opens.tolist(), range(first_bypass, first_bypass + 2 * len(opens), 2)
    ))

    # Supply at an object's first request, demand at its last; single
    # occurrences and middle occurrences have no net supply.
    network.supply[:] = np.where(
        prv < 0, np.where(nxt >= 0, sizes, 0), np.where(nxt < 0, -sizes, 0)
    ).tolist()
    return network, bypass_arc


def solve_opt(trace: Trace, cache_size: int) -> OptResult:
    """Compute OPT's decisions for a trace window.

    The window should be small enough for an exact solve (up to a few tens
    of thousands of requests); for longer traces use
    :func:`repro.opt.segmentation.solve_segmented` or the ranking-axis
    pruning of :func:`repro.opt.segmentation.solve_pruned`.
    """
    n = len(trace)
    network, bypass_arc = build_opt_network(trace, cache_size)
    result = solve_min_cost_flow(network)

    sizes = trace.sizes
    costs = trace.costs
    has_next = trace.next_occurrence() >= 0
    prv = trace.prev_occurrence()
    has_prev = prv >= 0

    # Bytes of each recurring interval that bypass the cache (a miss at
    # the object's next request), by the request that opens the interval.
    missed = np.zeros(n, dtype=np.int64)
    missed[np.fromiter(bypass_arc, dtype=np.intp, count=len(bypass_arc))] = (
        np.fromiter(
            map(result.flow.__getitem__, bypass_arc.values()),
            dtype=np.int64,
            count=len(bypass_arc),
        )
    )

    cached_fraction = np.zeros(n, dtype=np.float64)
    cached_fraction[has_next] = 1.0 - missed[has_next] / sizes[has_next]
    decisions = has_next & (missed == 0)
    hit_bytes = np.zeros(n, dtype=np.int64)
    hit_bytes[has_prev] = sizes[has_prev] - missed[prv[has_prev]]

    # Compulsory misses: every first request is fetched.  A running sum
    # (not ``np.sum``'s pairwise tree) adds them in trace order.
    miss_cost = float(
        np.cumsum(np.concatenate(([result.total_cost], costs[~has_prev])))[-1]
    )

    return OptResult(
        decisions=decisions,
        cached_fraction=cached_fraction,
        hit_bytes=hit_bytes,
        miss_cost=miss_cost,
        flow_cost=float(result.total_cost),
        augmentations=result.augmentations,
    )


def opt_hit_ratios(trace: Trace, result: OptResult) -> tuple[float, float]:
    """(byte hit ratio, object hit ratio) achieved by OPT on the window.

    A request counts as an object hit when *all* of its bytes were cached
    over the preceding interval.
    """
    total_bytes = float(trace.sizes.sum())
    bhr = float(result.hit_bytes.sum()) / total_bytes if total_bytes else 0.0
    full_hits = int((result.hit_bytes == trace.sizes).sum())
    # First requests have hit_bytes == 0 and can never be full hits unless
    # size == 0, which Request forbids.
    ohr = full_hits / len(trace) if len(trace) else 0.0
    return bhr, ohr

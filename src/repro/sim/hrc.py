"""Hit-ratio curves and cache provisioning (paper §5, citing [72]).

The discussion section points at "recent work on modeling CDN cache
provisioning [Footprint Descriptors, CoNEXT'17]" as the way to scale the
learning approach "across many servers and CDN points-of-presence".  The
building block of that line of work is the *hit-ratio curve* (HRC): byte
hit ratio as a function of cache size, computed from a trace without
simulating every size.

This module provides:

* :func:`reuse_distance_bytes` — exact byte-weighted LRU stack (reuse)
  distances via a Fenwick tree (Mattson's algorithm, O(n log n));
* :func:`lru_hit_ratio_curve` — the exact LRU HRC from those distances
  (one pass, every cache size at once);
* :func:`partition_cache` — provision a byte budget across tenants by
  maximising the sum of their HRCs (greedy marginal-gain water-filling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..trace import Trace

__all__ = [
    "HitRatioCurve",
    "reuse_distance_bytes",
    "lru_hit_ratio_curve",
    "partition_cache",
]


class _Fenwick:
    """Fenwick tree over request slots, holding resident byte counts."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of slots [0, i]."""
        i += 1
        total = 0
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of slots [lo, hi]."""
        if lo > hi:
            return 0
        return self.prefix(hi) - (self.prefix(lo - 1) if lo > 0 else 0)


@dataclass(frozen=True)
class HitRatioCurve:
    """A byte hit-ratio curve: ``bhr(size)`` sampled at ``sizes``."""

    sizes: np.ndarray
    bhr: np.ndarray

    def at(self, size: float) -> float:
        """Interpolated BHR at an arbitrary cache size."""
        return float(np.interp(size, self.sizes, self.bhr))


def reuse_distance_bytes(trace: Trace) -> np.ndarray:
    """Byte-weighted LRU stack distance per request (-1 = first access).

    The stack distance of a request is the number of *bytes* of distinct
    objects touched since the previous access to the same object — exactly
    the LRU cache size needed for this request to hit.
    """
    n = len(trace)
    distances = np.full(n, -1, dtype=np.int64)
    fenwick = _Fenwick(n)
    last_pos: dict[int, int] = {}
    objs = trace.objs
    sizes = trace.sizes
    for i in range(n):
        obj = int(objs[i])
        size = int(sizes[i])
        prev = last_pos.get(obj)
        if prev is not None:
            # Bytes of distinct objects touched in (prev, i).
            distances[i] = fenwick.range_sum(prev + 1, i - 1) + size
            fenwick.add(prev, -size)
        fenwick.add(i, size)
        last_pos[obj] = i
    return distances


def lru_hit_ratio_curve(
    trace: Trace, n_points: int = 64, warmup_fraction: float = 0.0
) -> HitRatioCurve:
    """Exact LRU byte-HRC from one stack-distance pass.

    A request with stack distance ``d`` hits in every LRU cache of size
    >= ``d``; accumulating byte-weighted counts over a size grid yields the
    whole curve at once (Mattson et al.'s classic observation).
    """
    distances = reuse_distance_bytes(trace)
    sizes = trace.sizes
    start = int(warmup_fraction * len(trace))
    dist = distances[start:]
    weight = sizes[start:].astype(np.float64)
    total = float(weight.sum())

    finite = dist >= 0
    if finite.any():
        max_size = int(dist[finite].max())
    else:
        max_size = 1
    grid = np.unique(
        np.linspace(1, max(max_size, 1), n_points).astype(np.int64)
    )
    bhr = np.empty(len(grid), dtype=np.float64)
    for k, c in enumerate(grid):
        hit = finite & (dist <= c)
        bhr[k] = float(weight[hit].sum()) / total if total else 0.0
    return HitRatioCurve(sizes=grid.astype(np.float64), bhr=bhr)


def partition_cache(
    curves: list[HitRatioCurve],
    demands: list[float],
    total_bytes: int,
    step: int | None = None,
) -> list[int]:
    """Split a byte budget across tenants to maximise total byte hits.

    Args:
        curves: per-tenant hit-ratio curves.
        demands: per-tenant traffic volume (bytes requested per unit time)
            used to weight the curves.
        total_bytes: budget to distribute.
        step: allocation granularity (default: budget/100).

    Returns:
        Per-tenant byte allocations summing to at most ``total_bytes``,
        found by greedy marginal-gain allocation (optimal for concave
        curves; near-optimal in practice for the mildly non-concave tails).
    """
    if len(curves) != len(demands):
        raise ValueError("curves and demands must align")
    if total_bytes <= 0:
        raise ValueError("total_bytes must be positive")
    step = step or max(1, total_bytes // 100)
    alloc = [0] * len(curves)
    remaining = total_bytes
    while remaining >= step:
        best_gain, best_tenant = 0.0, -1
        for t, (curve, demand) in enumerate(zip(curves, demands)):
            gain = demand * (
                curve.at(alloc[t] + step) - curve.at(alloc[t])
            )
            if gain > best_gain:
                best_gain, best_tenant = gain, t
        if best_tenant < 0:
            break  # no tenant gains from more space
        alloc[best_tenant] += step
        remaining -= step
    return alloc

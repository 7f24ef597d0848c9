"""Trace statistics used to sanity-check workloads against CDN lore.

These summarise the properties the paper's arguments depend on: popularity
skew (long tail of barely-requested objects, §2.2) and size variability
(§2.2 free-bytes discussion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .record import Trace

__all__ = ["TraceStats", "compute_stats"]


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace."""

    n_requests: int
    n_objects: int
    total_bytes: int
    footprint_bytes: int
    one_hit_wonder_ratio: float
    under_five_requests_ratio: float
    mean_size: float
    median_size: float
    p99_size: float
    max_size: int
    compulsory_miss_ratio: float

    def as_dict(self) -> dict:
        """Plain-dict view for table printing."""
        return {
            "n_requests": self.n_requests,
            "n_objects": self.n_objects,
            "total_bytes": self.total_bytes,
            "footprint_bytes": self.footprint_bytes,
            "one_hit_wonder_ratio": self.one_hit_wonder_ratio,
            "under_five_requests_ratio": self.under_five_requests_ratio,
            "mean_size": self.mean_size,
            "median_size": self.median_size,
            "p99_size": self.p99_size,
            "max_size": self.max_size,
            "compulsory_miss_ratio": self.compulsory_miss_ratio,
        }


def compute_stats(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` for a trace."""
    if len(trace) == 0:
        raise ValueError("cannot compute statistics of an empty trace")
    objs = trace.objs
    sizes = trace.sizes
    unique, counts = np.unique(objs, return_counts=True)
    n_objects = len(unique)
    one_hit = float((counts == 1).sum()) / n_objects
    under_five = float((counts < 5).sum()) / n_objects
    # Per-object size: first occurrence wins.
    seen = set()
    footprint = 0
    for o, s in zip(objs.tolist(), sizes.tolist()):
        if o not in seen:
            seen.add(o)
            footprint += s
    return TraceStats(
        n_requests=len(trace),
        n_objects=n_objects,
        total_bytes=int(sizes.sum()),
        footprint_bytes=footprint,
        one_hit_wonder_ratio=one_hit,
        under_five_requests_ratio=under_five,
        mean_size=float(sizes.mean()),
        median_size=float(np.median(sizes)),
        p99_size=float(np.percentile(sizes, 99)),
        max_size=int(sizes.max()),
        compulsory_miss_ratio=n_objects / len(trace),
    )

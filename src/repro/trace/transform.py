"""Trace transformation: timestamp-ordered interleaving.

:func:`interleave` merges several traces by timestamp — multi-tenant
servers, or mixing a synthetic attack into a base load.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .record import Trace

__all__ = ["interleave"]


def interleave(traces: Sequence[Trace], name: str = "interleaved") -> Trace:
    """Merge traces by timestamp.

    Object-id spaces must already be disjoint if the tenants are meant to
    be distinct objects (the function does not remap ids).
    """
    if not traces:
        raise ValueError("need at least one trace")
    streams = [iter(t.requests) for t in traces]
    merged = heapq.merge(*streams, key=lambda r: r.time)
    return Trace(list(merged), name=name)

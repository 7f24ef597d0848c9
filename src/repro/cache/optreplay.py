"""Replaying OPT's offline decisions inside a real cache.

The paper's Section 5 observes that near-perfect *prediction* of OPT does
not automatically give near-optimal *caching*: admission mistakes have
knock-on effects through eviction.  This policy lets us study exactly that
question in isolation — admit precisely what OPT admits, with a choice of
eviction rules — and also provides the OPT bar of Figure 6 when driven with
the true decisions.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..trace import Request, Trace
from .base import CachePolicy
from .ranked import RankedHeap

__all__ = ["OptReplayCache"]


class OptReplayCache(CachePolicy):
    """Admit according to a precomputed per-request decision array.

    The policy is positional: it must see the exact trace the decisions were
    computed for, in order.  Eviction is either oracle farthest-in-future
    ("belady") or LRU ("lru").

    Args:
        cache_size: capacity in bytes.
        decisions: per-request booleans (True = OPT caches this request).
        trace: the trace the decisions belong to (for the next-use oracle).
        eviction: "belady" or "lru".
    """

    name = "OPT-replay"

    def __init__(
        self,
        cache_size: int,
        decisions: Sequence[bool] | np.ndarray,
        trace: Trace,
        eviction: str = "belady",
    ) -> None:
        super().__init__(cache_size)
        if eviction not in ("belady", "lru"):
            raise ValueError("eviction must be 'belady' or 'lru'")
        self.decisions = np.asarray(decisions, dtype=bool)
        if len(self.decisions) != len(trace):
            raise ValueError("decisions must align with the trace")
        self.eviction = eviction
        self._next_use = trace.next_occurrence()
        self._cursor = -1
        self._lru: OrderedDict[int, None] = OrderedDict()
        # Farthest next use first; among never-reused objects, lowest id.
        self._ranked = RankedHeap()

    def on_request(self, request: Request) -> bool:
        """Process the next request of the aligned trace."""
        self._cursor += 1
        if self._cursor >= len(self.decisions):
            raise IndexError("more requests than precomputed decisions")
        return super().on_request(request)

    def _record_next_use(self, obj: int) -> None:
        nxt = self._next_use[self._cursor]
        next_use = float(nxt) if nxt >= 0 else float("inf")
        self._ranked.push(obj, (-next_use, obj))

    def _on_hit(self, request: Request) -> None:
        self._lru.move_to_end(request.obj)
        self._record_next_use(request.obj)
        if not self.decisions[self._cursor]:
            # OPT drops the object after serving this hit (the paper notes a
            # hit may evict the hit object, matching OPT's behaviour).
            self._remove(request.obj)

    def _admit(self, request: Request) -> bool:
        return bool(self.decisions[self._cursor])

    def _insert(self, request: Request) -> None:
        super()._insert(request)
        self._lru[request.obj] = None
        self._record_next_use(request.obj)

    def _remove(self, obj: int) -> None:
        super()._remove(obj)
        self._lru.pop(obj, None)
        self._ranked.discard(obj)

    def _select_victim(self, incoming: Request) -> int | None:
        if self.eviction == "lru":
            return next(iter(self._lru), None)
        return self._ranked.peek()

    def _reset_policy_state(self) -> None:
        self._cursor = -1
        self._lru.clear()
        self._ranked.clear()

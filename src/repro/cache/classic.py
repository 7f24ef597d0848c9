"""Classic baseline policies: RND, LRU, LRU-K, LFU, LFUDA.

These are the simple end of the paper's Figure 6 comparison (plus RND and
LRU from Figure 1).
"""

from __future__ import annotations

from collections import OrderedDict, deque

import numpy as np

from ..trace import Request
from .base import CachePolicy
from .ranked import RankedHeap

__all__ = ["RandomCache", "LRUCache", "LRUKCache", "LFUCache", "LFUDACache"]


class RandomCache(CachePolicy):
    """Admit everything, evict a uniformly random resident object."""

    name = "RND"

    def __init__(self, cache_size: int, seed: int = 0) -> None:
        super().__init__(cache_size)
        self._rng = np.random.default_rng(seed)
        self._order: list[int] = []
        self._pos: dict[int, int] = {}

    def _insert(self, request: Request) -> None:
        super()._insert(request)
        self._pos[request.obj] = len(self._order)
        self._order.append(request.obj)

    def _remove(self, obj: int) -> None:
        super()._remove(obj)
        # O(1) removal: swap with the last element.
        pos = self._pos.pop(obj)
        last = self._order.pop()
        if last != obj:
            self._order[pos] = last
            self._pos[last] = pos

    def _select_victim(self, incoming: Request) -> int | None:
        if not self._order:
            return None
        return self._order[int(self._rng.integers(0, len(self._order)))]

    def _reset_policy_state(self) -> None:
        self._order.clear()
        self._pos.clear()


class LRUCache(CachePolicy):
    """Least-recently-used eviction, admit-all."""

    name = "LRU"

    def __init__(self, cache_size: int) -> None:
        super().__init__(cache_size)
        self._lru: OrderedDict[int, None] = OrderedDict()

    def _on_hit(self, request: Request) -> None:
        self._lru.move_to_end(request.obj)

    def _insert(self, request: Request) -> None:
        super()._insert(request)
        self._lru[request.obj] = None

    def _remove(self, obj: int) -> None:
        super()._remove(obj)
        self._lru.pop(obj, None)

    def _select_victim(self, incoming: Request) -> int | None:
        if not self._lru:
            return None
        return next(iter(self._lru))

    def _reset_policy_state(self) -> None:
        self._lru.clear()


class LRUKCache(CachePolicy):
    """LRU-K (O'Neil et al. 1993): evict the object whose K-th most recent
    reference is oldest; objects with fewer than K references rank lowest.

    Reference history is retained for a bounded set of non-resident objects,
    as the original algorithm requires.
    """

    name = "LRU-K"

    def __init__(self, cache_size: int, k: int = 2, history_size: int = 100_000) -> None:
        super().__init__(cache_size)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._history: OrderedDict[int, deque] = OrderedDict()
        self._history_size = history_size
        self._ranked = RankedHeap()  # by K-th most recent reference time

    def _record(self, request: Request) -> float:
        hist = self._history.get(request.obj)
        if hist is None:
            hist = deque(maxlen=self.k)
            self._history[request.obj] = hist
        else:
            self._history.move_to_end(request.obj)
        hist.append(request.time)
        while len(self._history) > self._history_size:
            old_obj, _ = self._history.popitem(last=False)
            if old_obj in self._entries:
                # Keep history for residents; re-insert at the front.
                self._history[old_obj] = deque([request.time], maxlen=self.k)
                self._history.move_to_end(old_obj, last=False)
                break
        return hist[0] if len(hist) >= self.k else float("-inf")

    def _on_hit(self, request: Request) -> None:
        self._ranked.push(request.obj, self._record(request))

    def _on_miss_observed(self, request: Request) -> None:
        self._record(request)

    def _insert(self, request: Request) -> None:
        super()._insert(request)
        hist = self._history[request.obj]
        kth = hist[0] if len(hist) >= self.k else float("-inf")
        self._ranked.push(request.obj, kth)

    def _remove(self, obj: int) -> None:
        super()._remove(obj)
        self._ranked.discard(obj)

    def _select_victim(self, incoming: Request) -> int | None:
        return self._ranked.peek()

    def _reset_policy_state(self) -> None:
        self._history.clear()
        self._ranked.clear()


class _AgedFrequencyCache(CachePolicy):
    """Shared machinery for LFU-style policies with a global age term.

    Priority of an object is ``age_offset + key(request, frequency)``; the
    aging offset is bumped to the victim's priority on eviction, which is
    the classic GreedyDual trick for O(log n) aging (LFU turns it off).
    """

    _aging = True

    def __init__(self, cache_size: int) -> None:
        super().__init__(cache_size)
        self._age = 0.0
        self._freq: dict[int, int] = {}
        self._prio: dict[int, float] = {}
        self._ranked = RankedHeap()

    def _key(self, request: Request, freq: int) -> float:
        raise NotImplementedError

    def _reprioritise(self, request: Request) -> None:
        freq = self._freq.get(request.obj, 0) + 1
        self._freq[request.obj] = freq
        prio = self._age + self._key(request, freq)
        self._prio[request.obj] = prio
        self._ranked.push(request.obj, prio)

    def _on_hit(self, request: Request) -> None:
        self._reprioritise(request)

    def _insert(self, request: Request) -> None:
        super()._insert(request)
        self._reprioritise(request)

    def _remove(self, obj: int) -> None:
        super()._remove(obj)
        self._ranked.discard(obj)
        victim_prio = self._prio.pop(obj, None)
        if victim_prio is not None and self._aging:
            self._age = max(self._age, victim_prio)
        self._freq.pop(obj, None)

    def _select_victim(self, incoming: Request) -> int | None:
        return self._ranked.peek()

    def _reset_policy_state(self) -> None:
        self._age = 0.0
        self._freq.clear()
        self._prio.clear()
        self._ranked.clear()


class LFUCache(_AgedFrequencyCache):
    """Plain least-frequently-used (no aging)."""

    name = "LFU"
    _aging = False

    def _key(self, request: Request, freq: int) -> float:
        return float(freq)


class LFUDACache(_AgedFrequencyCache):
    """LFU with Dynamic Aging (Arlitt et al. 2000): priority = age + freq."""

    name = "LFUDA"

    def _key(self, request: Request, freq: int) -> float:
        return float(freq)

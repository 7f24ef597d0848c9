"""The one heap every score-ordered policy (LFO, IRL, LRU-K, LFU, LFUDA,
GDSF, GDS, OPT replay, the tiers) ranks its residents in.  A re-rank
leaves the superseded entry behind, so once stale entries exceed
``_STALE_RATIO`` of it the heap is compacted in place
(``evict.compactions`` / ``evict.heap_stale_ratio``): O(residents)
memory, amortised O(1) per push.
"""

from __future__ import annotations

import heapq
from typing import Any

from ..obs import get_registry

#: Below this heap length compaction is never triggered: rebuilding tiny
#: heaps buys nothing, and the floor gives tests a hard O(n_objects) bound.
_COMPACT_MIN_HEAP = 64

#: Compact once more than this share of the entries is stale (superseded
#: or discarded): the heap stays within ~2x its live entries.
_STALE_RATIO = 0.5


class RankedHeap:
    """Min-heap of ``(priority, stamp, obj)``, one live entry per object:
    the stamp grows with every push, breaking priority ties by push order
    and telling the live entry from superseded ones."""

    def __init__(self) -> None:
        self._heap: list[tuple[Any, int, int]] = []
        self._stamp: dict[int, int] = {}  # obj -> stamp of its live entry
        self._counter = 0

    def push(self, obj: int, priority: Any) -> None:
        """Rank ``obj`` by ``priority``, superseding its previous rank."""
        self._counter += 1
        self._stamp[obj] = self._counter
        heap = self._heap
        heapq.heappush(heap, (priority, self._counter, obj))
        heap_len = len(heap)
        if (
            heap_len >= _COMPACT_MIN_HEAP
            and heap_len - len(self._stamp) > _STALE_RATIO * heap_len
        ):
            self._compact()

    def discard(self, obj: int) -> None:
        """Unrank ``obj``: its entries turn stale."""
        self._stamp.pop(obj, None)

    def peek(self) -> int | None:
        """The lowest-ranked live object, popping stale entries on the way."""
        heap = self._heap
        while heap:
            _, stamp, obj = heap[0]
            if self._stamp.get(obj) == stamp:
                return obj
            heapq.heappop(heap)
        return None

    def clear(self) -> None:
        self._heap.clear()
        self._stamp.clear()
        self._counter = 0

    def _compact(self) -> None:
        """Keep only live entries (their keys unchanged, so :meth:`peek`
        answers the same) and re-heapify in place."""
        registry = get_registry()
        if registry.enabled:
            registry.counter("evict.compactions").inc()
            registry.gauge("evict.heap_stale_ratio").set(
                1.0 - len(self._stamp) / len(self._heap)
            )
        stamps = self._stamp
        self._heap = [
            entry for entry in self._heap if stamps.get(entry[2]) == entry[1]
        ]
        heapq.heapify(self._heap)

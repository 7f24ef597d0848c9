"""The bounded ranked heap, once for every score-ordered policy."""

import numpy as np
import pytest

from repro.cache import (
    GDSCache,
    GDSFCache,
    LFUCache,
    LFUDACache,
    LRUKCache,
    OptReplayCache,
)
from repro.cache.ranked import RankedHeap
from repro.core import IRLCache, TieredLFOCache
from repro.trace import Request, Trace


def _live_minimum(pushed):
    """Reference: the object of the smallest live ``(priority, stamp)``."""
    return min(pushed.items(), key=lambda item: item[1])[0] if pushed else None


class TestRankedHeap:
    def test_peek_is_the_live_minimum_through_compactions(self):
        rng = np.random.default_rng(5)
        heap, pushed, stamp, compactions = RankedHeap(), {}, 0, 0
        for _ in range(5000):
            obj = int(rng.integers(0, 40))
            if rng.random() < 0.2:
                heap.discard(obj)
                pushed.pop(obj, None)
            else:
                # Few distinct priorities: ties fall to push order.
                priority = float(rng.integers(0, 8))
                stamp += 1
                before = len(heap._heap)
                heap.push(obj, priority)
                pushed[obj] = (priority, stamp)
                compactions += len(heap._heap) <= before
                assert len(heap._heap) <= max(64, 2 * len(pushed) + 1)
            assert heap.peek() == _live_minimum(pushed)
        assert compactions > 0

    def test_discard_and_clear(self):
        heap = RankedHeap()
        heap.push(1, 0.1)
        heap.push(2, 0.2)
        heap.push(1, 0.3)  # supersedes 0.1
        assert heap.peek() == 2
        heap.discard(2)
        heap.discard(7)  # never ranked: a no-op
        assert heap.peek() == 1
        heap.clear()
        assert heap.peek() is None and not heap._heap
        heap.push(3, 0.0)
        assert heap.peek() == 3

    def test_tuple_priorities(self):
        heap = RankedHeap()
        for obj in (5, 3, 9):
            heap.push(obj, (-float("inf"), obj))
        assert heap.peek() == 3


# 20k requests over 200 objects that all fit: nearly every request is a
# hit that re-ranks its object.  A heap that keeps every superseded entry
# grows to one per request.
_N_OBJECTS = 200
_HIT_HEAVY = [
    Request(float(t), int(obj), 10)
    for t, obj in enumerate(
        np.random.default_rng(1).integers(0, _N_OBJECTS, size=20_000)
    )
]


def _opt_replay(size):
    trace = Trace(_HIT_HEAVY)
    return OptReplayCache(size, np.ones(len(trace), dtype=bool), trace)


def _tiered(size):
    return TieredLFOCache(size // 20, size, n_gaps=4)


# LFO's own heap is checked by ``TestHeapBounded`` in test_core_lfo.py.
_HEAPS = {
    "LRU-K": (LRUKCache, lambda policy: policy._ranked),
    "LFU": (LFUCache, lambda policy: policy._ranked),
    "LFUDA": (LFUDACache, lambda policy: policy._ranked),
    "GDSF": (GDSFCache, lambda policy: policy._ranked),
    "GDS": (GDSCache, lambda policy: policy._ranked),
    "OPT-replay": (_opt_replay, lambda policy: policy._ranked),
    "IRL": (lambda size: IRLCache(size, n_gaps=4), lambda policy: policy._ranked),
    "RAM tier": (_tiered, lambda cache: cache.ram.ranked),
    "SSD tier": (_tiered, lambda cache: cache.ssd.ranked),
}


@pytest.mark.parametrize("name", list(_HEAPS))
def test_hit_heavy_traffic_keeps_the_heap_bounded(name):
    make, heap_of = _HEAPS[name]
    policy = make(10 * _N_OBJECTS)
    peak = 0
    for request in _HIT_HEAVY:
        policy.on_request(request)
        peak = max(peak, len(heap_of(policy)._heap))
    assert peak <= 2 * _N_OBJECTS + 1

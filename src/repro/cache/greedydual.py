"""Greedy-Dual family: GDSF and GD-Wheel.

GDSF (Cherkasova 1998) is the heuristic that beats RL-based caching in the
paper's Figure 1.  GD-Wheel (Li & Cox 2015) approximates GreedyDual aging
with cost wheels to avoid the priority queue; both appear in Figure 6.
"""

from __future__ import annotations

from ..trace import Request
from .base import CachePolicy
from .classic import _AgedFrequencyCache

__all__ = ["GDSFCache", "GDWheelCache"]


class GDSFCache(_AgedFrequencyCache):
    """Greedy-Dual-Size-Frequency: priority = age + freq * cost / size."""

    name = "GDSF"

    def _key(self, request: Request, freq: int) -> float:
        return freq * request.cost / request.size


class GDWheelCache(CachePolicy):
    """GD-Wheel: GreedyDual(-Size) with hierarchical cost wheels.

    Priorities ``H = L + cost/size`` are quantised into wheel slots; the
    clock hand advances to the next occupied slot to find a victim, which
    implements the aging term ``L`` in O(1) amortised instead of a heap.
    Two wheel levels carry overflow, as in the original design.
    """

    name = "GD-Wheel"

    def __init__(
        self,
        cache_size: int,
        n_slots: int = 1024,
        slot_granularity: float | None = None,
    ) -> None:
        super().__init__(cache_size)
        self.n_slots = n_slots
        self._granularity = slot_granularity
        self._hand = 0
        self._rounds = 0  # completed wheel revolutions (level-2 wheel)
        self._slots: list[dict[int, None]] = [dict() for _ in range(n_slots)]
        self._overflow: dict[int, float] = {}  # obj -> absolute priority
        self._slot_of: dict[int, int] = {}
        self._freq: dict[int, int] = {}

    # -- priority plumbing ---------------------------------------------------

    def _auto_granularity(self, request: Request) -> float:
        # First-touch calibration: one wheel revolution spans ~4x the
        # incoming cost density, so typical priorities land within a turn.
        return max(request.cost / request.size, 1e-9) * 4.0 / self.n_slots

    def _priority(self, request: Request) -> float:
        freq = self._freq.get(request.obj, 0) + 1
        self._freq[request.obj] = freq
        base = (self._rounds * self.n_slots + self._hand) * self._granularity
        return base + freq * request.cost / request.size

    def _place(self, obj: int, priority: float) -> None:
        slot_abs = int(priority / self._granularity)
        current_abs = self._rounds * self.n_slots + self._hand
        if slot_abs - current_abs >= self.n_slots:
            self._overflow[obj] = priority
            self._slot_of[obj] = -1
            return
        slot = slot_abs % self.n_slots
        self._slots[slot][obj] = None
        self._slot_of[obj] = slot

    def _unplace(self, obj: int) -> None:
        slot = self._slot_of.pop(obj, None)
        if slot is None:
            return
        if slot == -1:
            self._overflow.pop(obj, None)
        else:
            self._slots[slot].pop(obj, None)

    # -- CachePolicy hooks ---------------------------------------------------

    def _on_hit(self, request: Request) -> None:
        self._unplace(request.obj)
        self._place(request.obj, self._priority(request))

    def _insert(self, request: Request) -> None:
        if self._granularity is None:
            self._granularity = self._auto_granularity(request)
        super()._insert(request)
        self._place(request.obj, self._priority(request))

    def _remove(self, obj: int) -> None:
        super()._remove(obj)
        self._unplace(obj)
        self._freq.pop(obj, None)

    def _select_victim(self, incoming: Request) -> int | None:
        if not self._entries:
            return None
        for _ in range(self.n_slots + 1):
            slot = self._slots[self._hand]
            if slot:
                return next(iter(slot))
            self._hand += 1
            if self._hand == self.n_slots:
                self._hand = 0
                self._rounds += 1
                self._respill_overflow()
        # All wheel slots empty: everything sits in overflow; evict the
        # overflow minimum directly.
        if self._overflow:
            return min(self._overflow, key=self._overflow.get)
        return None

    def _respill_overflow(self) -> None:
        """After a revolution, pull overflow entries whose priority now fits."""
        horizon = (self._rounds + 1) * self.n_slots * self._granularity
        ready = [o for o, p in self._overflow.items() if p < horizon]
        for obj in ready:
            priority = self._overflow.pop(obj)
            self._slot_of.pop(obj, None)
            self._place(obj, priority)

    def _reset_policy_state(self) -> None:
        self._hand = 0
        self._rounds = 0
        self._slots = [dict() for _ in range(self.n_slots)]
        self._overflow.clear()
        self._slot_of.clear()
        self._freq.clear()

"""Cache policy interface and shared machinery.

Every policy manages a byte-budgeted object store and answers one question
per request: *was this a hit, and if not, do we admit (and who do we
evict)?*  Policies override the admission/eviction hooks; the bookkeeping
(resident set, byte accounting, hit counting) lives here so policy code
stays small — the paper makes a point of its whole LFO policy fitting in 50
simulator lines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..trace import Request

__all__ = ["CachePolicy"]


class CachePolicy(ABC):
    """Abstract cache with byte capacity, admission, and eviction.

    Subclasses implement :meth:`_on_hit`, :meth:`_admit` and
    :meth:`_select_victim`; the base class drives them from
    :meth:`on_request`.
    """

    #: Human-readable policy name (overridden per subclass).
    name = "abstract"

    def __init__(self, cache_size: int) -> None:
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        self.cache_size = int(cache_size)
        self.used_bytes = 0
        self.n_evictions = 0
        self._entries: dict[int, int] = {}  # obj -> size
        self._costs: dict[int, float] = {}  # obj -> last retrieval cost

    # -- public API ---------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        """Bytes currently unoccupied."""
        return self.cache_size - self.used_bytes

    @property
    def supports_batched_scoring(self) -> bool:
        """Whether :func:`repro.sim.simulate` may use its micro-batching
        fast path for this policy (the decision engine,
        :mod:`repro.core.engine`).  Only model-driven policies with a
        static scorer opt in."""
        return False

    @property
    def n_objects(self) -> int:
        """Number of resident objects."""
        return len(self._entries)

    def contains(self, obj: int) -> bool:
        """True when the object is resident."""
        return obj in self._entries

    def entry_cost(self, obj: int) -> float | None:
        """Latest observed retrieval cost of a resident object, or None."""
        return self._costs.get(obj)

    def on_request(self, request: Request) -> bool:
        """Process one request; returns True on a cache hit."""
        if request.obj in self._entries:
            self._costs[request.obj] = request.cost
            self._on_hit(request)
            return True
        self._on_miss_observed(request)
        if request.size > self.cache_size:
            return False  # cannot possibly fit
        if not self._admit(request):
            return False
        if not self._evict_until_fits(request):
            return False  # policy refuses to evict: bypass instead
        self._insert(request)
        return False

    def _evict_until_fits(self, request: Request) -> bool:
        """Evict victims until ``request`` fits; True on success.

        Victims come from :meth:`_select_victims`, which may return a
        multi-victim *plan* (e.g. one sampled-and-scored candidate batch
        covering several evictions); the plan is consumed in order and
        only as far as needed, and a fresh plan is requested when it runs
        out.  When the policy refuses (an empty plan with the object still
        not fitting), the incoming request is bypassed and every victim
        already removed is reinstated via :meth:`_restore`, original
        retrieval cost included — a bypass must never shrink the resident
        set or corrupt cost-aware priorities.
        """
        evicted: list[tuple[int, int, float]] = []
        while self.used_bytes + request.size > self.cache_size:
            progressed = False
            for victim in self._select_victims(request):
                if self.used_bytes + request.size <= self.cache_size:
                    break
                size = self._entries.get(victim)
                if size is None:
                    continue  # plan entry went stale mid-plan
                cost = self._costs.get(victim, float(size))
                evicted.append((victim, size, cost))
                self._remove(victim)
                progressed = True
            if not progressed:
                for obj, size, cost in reversed(evicted):
                    self._restore(obj, size, request, cost)
                return False
        # Only completed plans count: restored victims were never evicted.
        self.n_evictions += len(evicted)
        return True

    def reset(self) -> None:
        """Clear all cache state."""
        self.used_bytes = 0
        self.n_evictions = 0
        self._entries.clear()
        self._costs.clear()
        self._reset_policy_state()

    # -- hooks for subclasses ----------------------------------------------

    def _on_hit(self, request: Request) -> None:
        """Update recency/frequency state on a hit (default: nothing)."""

    def _on_miss_observed(self, request: Request) -> None:
        """Observe a miss before the admission question (default: nothing).

        Useful for policies that track history of non-resident objects
        (LRU-K, TinyLFU, RL agents)."""

    def _admit(self, request: Request) -> bool:
        """Admission decision for a missed object (default: admit)."""
        return True

    @abstractmethod
    def _select_victim(self, incoming: Request) -> int | None:
        """Pick a resident object id to evict, or None to bypass instead."""

    def _select_victims(self, incoming: Request) -> list[int]:
        """Victim *plan* for one :meth:`_evict_until_fits` round.

        The default wraps :meth:`_select_victim` (one victim per round;
        an empty list means "refuse: bypass the incoming request").
        Policies that amortise victim selection — e.g. sampled eviction,
        which scores a whole candidate batch in one predictor call —
        override this to return several victims in eviction order; the
        driver consumes only as many as the incoming request needs.
        """
        victim = self._select_victim(incoming)
        return [] if victim is None else [victim]

    def _insert(self, request: Request) -> None:
        """Insert an admitted object (subclasses extend for their state)."""
        self._entries[request.obj] = request.size
        self.used_bytes += request.size
        self._costs[request.obj] = request.cost

    def _remove(self, obj: int) -> None:
        """Remove a resident object (subclasses extend for their state)."""
        size = self._entries.pop(obj)
        self.used_bytes -= size
        self._costs.pop(obj, None)

    def _restore(
        self,
        obj: int,
        size: int,
        incoming: Request,
        cost: float | None = None,
    ) -> None:
        """Reinstate a victim removed by an aborted eviction plan.

        The default rebuilds the entry through :meth:`_insert` with a
        synthesized request at the incoming request's timestamp carrying
        the victim's true retrieval cost (``cost``; falls back to
        ``cost == size`` when unknown), so policy metadata is refreshed
        (e.g. the object returns at the MRU end) without corrupting
        cost-aware priorities like GDSF's ``freq * cost / size``;
        subclasses with richer state can override for a closer undo.
        """
        self._insert(
            Request(
                incoming.time,
                obj,
                size,
                float(size) if cost is None else cost,
            )
        )

    def _reset_policy_state(self) -> None:
        """Clear subclass state on :meth:`reset` (default: nothing)."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={self.cache_size}, "
            f"used={self.used_bytes}, objects={len(self._entries)})"
        )

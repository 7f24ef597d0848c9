"""Hierarchical model-based caching (the paper's Section 5 extension).

The paper sketches how to generalise LFO beyond a single cache: "we could
apply our 'single cache' model to the aggregate cache space of a CDN server
(RAM, SSD, HDD) ... We first learn whether to cache an object at all.  A
second level of the model then learns rules on where to place the object."

This module implements that two-level design for a RAM+SSD server:

* level 1 — the standard LFO admission model over the *aggregate* space;
* level 2 — a placement model that predicts whether the object's next
  reuse comes soon ("hot": serve from RAM) or late ("warm": SSD is fine).

Placement labels come from OPT as well: among requests OPT caches, those
whose next request arrives within ``ram_horizon`` requests are RAM-labelled.
On RAM pressure, objects demote to SSD; on SSD pressure they leave the
server.  Hits are attributed per tier so storage-aware metrics (RAM hit
ratio, SSD read load) can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cache.ranked import RankedHeap
from ..features import FeatureTracker
from ..gbdt import GBDTClassifier, GBDTParams
from ..trace import Request, Trace
from .lfo import LFOModel
from .online import OptLabelConfig
from .trainer import WindowTrainer

__all__ = ["TierStats", "TieredLFOCache", "TieredLFOOnline"]

_RAM, _SSD = 0, 1


@dataclass
class TierStats:
    """Per-tier hit accounting."""

    ram_hits: int = 0
    ssd_hits: int = 0
    misses: int = 0
    ram_hit_bytes: int = 0
    ssd_hit_bytes: int = 0
    miss_bytes: int = 0

    @property
    def requests(self) -> int:
        """Total requests observed."""
        return self.ram_hits + self.ssd_hits + self.misses

    @property
    def ohr(self) -> float:
        """Object hit ratio over both tiers."""
        n = self.requests
        return (self.ram_hits + self.ssd_hits) / n if n else 0.0

    @property
    def bhr(self) -> float:
        """Byte hit ratio over both tiers."""
        total = self.ram_hit_bytes + self.ssd_hit_bytes + self.miss_bytes
        return (self.ram_hit_bytes + self.ssd_hit_bytes) / total if total else 0.0

    @property
    def ram_share_of_hits(self) -> float:
        """Fraction of hit bytes served from RAM (the latency-relevant
        quantity a placement model should maximise)."""
        hit_bytes = self.ram_hit_bytes + self.ssd_hit_bytes
        return self.ram_hit_bytes / hit_bytes if hit_bytes else 0.0


class _Tier:
    """One storage tier: byte budget plus a likelihood-ranked victim heap."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.used = 0
        self.entries: dict[int, int] = {}
        self.ranked = RankedHeap()

    def insert(self, obj: int, size: int, score: float) -> None:
        self.entries[obj] = size
        self.used += size
        self.ranked.push(obj, score)

    def remove(self, obj: int) -> int:
        size = self.entries.pop(obj)
        self.used -= size
        self.ranked.discard(obj)
        return size

    def clear(self) -> None:
        self.used = 0
        self.entries.clear()
        self.ranked.clear()


class TieredLFOCache:
    """Two-tier (RAM + SSD) cache driven by admission + placement models.

    Args:
        ram_size: RAM tier capacity in bytes.
        ssd_size: SSD tier capacity in bytes.
        admission_model: level-1 LFO model (None = cold start, admit all).
        placement_model: level-2 model scoring "reuses soon" (None = place
            everything in RAM first, demote on pressure).
        n_gaps: gap-feature count of the shared tracker.
        placement_cutoff: likelihood above which an object goes to RAM.
    """

    name = "LFO-tiered"

    def __init__(
        self,
        ram_size: int,
        ssd_size: int,
        admission_model: LFOModel | None = None,
        placement_model: LFOModel | None = None,
        n_gaps: int = 50,
        placement_cutoff: float = 0.5,
    ) -> None:
        if ram_size <= 0 or ssd_size <= 0:
            raise ValueError("tier sizes must be positive")
        self.ram = _Tier(ram_size)
        self.ssd = _Tier(ssd_size)
        self.admission_model = admission_model
        self.placement_model = placement_model
        self.placement_cutoff = placement_cutoff
        self._tracker = FeatureTracker(n_gaps=n_gaps)
        self.stats = TierStats()
        self.last_features: np.ndarray | None = None

    @property
    def cache_size(self) -> int:
        """Aggregate capacity (the level-1 model's view)."""
        return self.ram.size + self.ssd.size

    @property
    def free_bytes(self) -> int:
        """Aggregate free bytes."""
        return self.cache_size - self.ram.used - self.ssd.used

    @property
    def tracker(self) -> FeatureTracker:
        """The shared online feature state."""
        return self._tracker

    def contains(self, obj: int) -> bool:
        """Resident in either tier?"""
        return obj in self.ram.entries or obj in self.ssd.entries

    def tier_of(self, obj: int) -> str | None:
        """'ram', 'ssd', or None."""
        if obj in self.ram.entries:
            return "ram"
        if obj in self.ssd.entries:
            return "ssd"
        return None

    # -- internals ------------------------------------------------------------

    def _scores(self, features: np.ndarray) -> tuple[float, float]:
        admit = (
            float(self.admission_model.likelihood(features)[0])
            if self.admission_model is not None
            else 1.0
        )
        place = (
            float(self.placement_model.likelihood(features)[0])
            if self.placement_model is not None
            else 1.0
        )
        return admit, place

    def _make_room(self, tier: _Tier, need: int, demote: bool) -> bool:
        """Evict (or demote) from a tier until ``need`` bytes fit."""
        while tier.used + need > tier.size:
            victim = tier.ranked.peek()
            if victim is None:
                return False
            size = tier.remove(victim)
            if demote:
                # Demotions carry a neutral score: the placement model
                # scored them RAM-worthy once; in SSD they compete by the
                # same score against colder objects.
                if self.ssd.used + size <= self.ssd.size or self._make_room(
                    self.ssd, size, demote=False
                ):
                    self.ssd.insert(victim, size, 0.0)
        return True

    def on_request(self, request: Request) -> bool:
        """Process one request; returns True on a hit (either tier).

        The tracker records the request while extracting its row
        (:meth:`~repro.features.FeatureTracker.advance`): the tiers rank
        by stored scores and never read the tracker, so recording before
        the decision is invisible.
        """
        features = self._tracker.advance(request, self.free_bytes)
        self.last_features = features
        admit_score, place_score = self._scores(features)

        hit = False
        if request.obj in self.ram.entries:
            hit = True
            self.stats.ram_hits += 1
            self.stats.ram_hit_bytes += request.size
            self.ram.ranked.push(request.obj, admit_score)
        elif request.obj in self.ssd.entries:
            hit = True
            self.stats.ssd_hits += 1
            self.stats.ssd_hit_bytes += request.size
            # A hit in SSD re-runs placement: hot objects promote to RAM.
            if place_score >= self.placement_cutoff:
                size = self.ssd.remove(request.obj)
                if self._make_room(self.ram, size, demote=True):
                    self.ram.insert(request.obj, size, admit_score)
                else:
                    self.ssd.insert(request.obj, size, admit_score)
            else:
                self.ssd.ranked.push(request.obj, admit_score)
        else:
            self.stats.misses += 1
            self.stats.miss_bytes += request.size
            self._admit(request, admit_score, place_score)
        return hit

    def _admit(
        self, request: Request, admit_score: float, place_score: float
    ) -> None:
        if self.admission_model is not None and admit_score < (
            self.admission_model.cutoff
        ):
            return
        size = request.size
        if place_score >= self.placement_cutoff and size <= self.ram.size:
            if self._make_room(self.ram, size, demote=True):
                self.ram.insert(request.obj, size, admit_score)
                return
        if size <= self.ssd.size and self._make_room(
            self.ssd, size, demote=False
        ):
            self.ssd.insert(request.obj, size, admit_score)

    def reset(self) -> None:
        """Clear all cache and accounting state (models are kept)."""
        self.ram.clear()
        self.ssd.clear()
        self.stats = TierStats()
        self.last_features = None


@dataclass(frozen=True)
class TieredFitJob:
    """The tiered training job: ``(admission, placement)`` models for one
    closed window, placement None when its labels are too few or all
    positive, no models below ``min_positive_labels`` admissions."""

    cache_size: int
    ram_horizon: int
    gbdt_params: GBDTParams
    label_config: OptLabelConfig
    min_positive_labels: int

    def __call__(
        self, requests: list[Request], features: np.ndarray, name: str,
        deployed: tuple[LFOModel, LFOModel | None] | None,
    ) -> tuple[LFOModel, LFOModel | None] | None:
        window = Trace(requests, name=name)
        admit = self.label_config.compute(window, self.cache_size)
        if admit.sum() < self.min_positive_labels:
            return None
        admission = self._fit(features, admit)
        nxt = window.next_occurrence()
        idx = np.arange(len(window))
        place = admit & (nxt >= 0) & (nxt - idx <= self.ram_horizon)
        if not self.min_positive_labels <= place.sum() < len(place):
            return admission, None
        return admission, self._fit(features, place)

    def _fit(self, features: np.ndarray, labels: np.ndarray) -> LFOModel:
        classifier = GBDTClassifier(self.gbdt_params).fit(features, labels)
        return LFOModel(classifier.compiled(), classifier=classifier)


@dataclass
class TieredLFOOnline:
    """Online windowed trainer for the two-level model.

    Wraps :class:`TieredLFOCache` with the Figure-2 loop: an inline
    :class:`~repro.core.WindowTrainer` runs a :class:`TieredFitJob` on
    every closed window and installs right after its last request.
    """

    name = "LFO-tiered-online"

    ram_size: int
    ssd_size: int
    window: int = 10_000
    ram_horizon: int = 500
    gbdt_params: GBDTParams = field(default_factory=GBDTParams)
    label_config: OptLabelConfig = field(default_factory=OptLabelConfig)
    n_gaps: int = 50
    min_positive_labels: int = 10

    def __post_init__(self) -> None:
        self.cache = TieredLFOCache(
            self.ram_size, self.ssd_size, n_gaps=self.n_gaps
        )
        self.trainer = WindowTrainer(
            self.window,
            TieredFitJob(
                self.ram_size + self.ssd_size, self.ram_horizon,
                self.gbdt_params, self.label_config, self.min_positive_labels,
            ),
            self._install,
        )

    @property
    def stats(self) -> TierStats:
        """Per-tier hit statistics of the underlying cache."""
        return self.cache.stats

    @property
    def n_retrains(self) -> int:
        """Windows whose models were installed."""
        return self.trainer.n_retrains

    def on_request(self, request: Request) -> bool:
        """Poll, decide, record: :meth:`repro.core.LFOOnline.on_request`."""
        self.trainer.poll()
        hit = self.cache.on_request(request)
        self.trainer.record((request,), self.cache.last_features[None])
        return hit

    def _install(self, models: tuple[LFOModel, LFOModel | None]) -> None:
        admission, placement = models
        self.cache.admission_model = admission
        if placement is not None:
            self.cache.placement_model = placement

"""Synthetic CDN workload generation.

The paper evaluates on a week-long production trace from a top-ten US
website, which is not publicly redistributable.  This module substitutes a
parameterised generator that reproduces the trace characteristics the paper
relies on (see DESIGN.md, "Substitutions"):

* Zipf-like object popularity with a long tail of one-hit wonders
  ("a large fraction of CDN objects receives fewer than 5 requests", §2.2).
* Highly variable object sizes — the paper's free-bytes feature matters
  because "evictions can temporarily free up lots of space (e.g., evicting a
  GB-large object)".
* A *mix* of content classes (web, photos, video segments, software
  downloads) whose proportions can shift over time, modelling the
  load-balancer-induced content-mix changes of §1.
* Temporal locality: requests to an object cluster in time, which is what
  makes inter-request gaps informative features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .record import Request, Trace

__all__ = [
    "ContentClass",
    "SyntheticConfig",
    "generate_trace",
    "generate_mixed_trace",
    "generate_mix_shift_trace",
    "generate_adversarial_scan",
    "zipf_weights",
    "sample_sizes",
]


def zipf_weights(n_objects: int, alpha: float) -> np.ndarray:
    """Normalised Zipf popularity weights for ranks 1..n (rank 1 hottest)."""
    if n_objects <= 0:
        raise ValueError("n_objects must be positive")
    ranks = np.arange(1, n_objects + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


def sample_sizes(
    rng: np.random.Generator,
    n_objects: int,
    median: float,
    sigma: float,
    max_size: int,
    min_size: int = 1,
) -> np.ndarray:
    """Lognormal object sizes clipped to ``[min_size, max_size]``.

    A lognormal body with a wide ``sigma`` reproduces the heavy-tailed CDN
    size distributions reported in [12, 33, 51].
    """
    raw = rng.lognormal(mean=np.log(median), sigma=sigma, size=n_objects)
    return np.clip(raw, min_size, max_size).astype(np.int64)


@dataclass(frozen=True)
class ContentClass:
    """One content type in the CDN mix (e.g. web, video, software).

    Attributes:
        name: human-readable label.
        n_objects: catalogue size for this class.
        alpha: Zipf skew of object popularity within the class.
        size_median: median object size in bytes.
        size_sigma: lognormal sigma of the size distribution.
        size_max: hard upper bound on object size in bytes.
        cost_median: when set, per-object retrieval costs are drawn
            lognormally around this median (modelling origin latency, §2.1
            of the paper); when None, cost defaults to the object size
            (the BHR objective).
        cost_sigma: lognormal sigma of the cost distribution.
    """

    name: str
    n_objects: int
    alpha: float
    size_median: float
    size_sigma: float
    size_max: int
    cost_median: float | None = None
    cost_sigma: float = 0.5


@dataclass
class SyntheticConfig:
    """Configuration of a single-class synthetic trace."""

    n_requests: int = 100_000
    n_objects: int = 10_000
    alpha: float = 0.8
    size_median: float = 32_000.0
    size_sigma: float = 1.4
    size_max: int = 1_000_000_000
    #: Mean logical time between requests (Poisson arrivals when > 0).
    mean_interarrival: float = 1.0
    #: Temporal-locality knob: probability that the next request re-draws
    #: from the recent working set instead of the global catalogue.
    locality: float = 0.0
    #: Size of the recent working set used by the locality re-draw.
    locality_window: int = 256
    seed: int = 42


def _emit_requests(
    rng: np.random.Generator,
    object_ids: np.ndarray,
    weights: np.ndarray,
    sizes_by_id: dict[int, int],
    n_requests: int,
    mean_interarrival: float,
    locality: float,
    locality_window: int,
    start_time: float = 0.0,
) -> list[Request]:
    """Draw ``n_requests`` requests from a weighted catalogue."""
    draws = rng.choice(object_ids, size=n_requests, p=weights)
    if mean_interarrival > 0:
        gaps = rng.exponential(mean_interarrival, size=n_requests)
    else:
        gaps = np.ones(n_requests)
    times = start_time + np.cumsum(gaps)

    requests: list[Request] = []
    recent: list[int] = []
    use_locality = locality > 0.0
    local_flags = rng.random(n_requests) < locality if use_locality else None
    local_picks = (
        rng.integers(0, locality_window, size=n_requests) if use_locality else None
    )
    for i in range(n_requests):
        obj = int(draws[i])
        if use_locality and recent and local_flags[i]:
            obj = recent[local_picks[i] % len(recent)]
        requests.append(Request(float(times[i]), obj, sizes_by_id[obj]))
        if use_locality:
            recent.append(obj)
            if len(recent) > locality_window:
                recent.pop(0)
    return requests


def generate_trace(config: SyntheticConfig) -> Trace:
    """Generate a single-class Zipf trace per ``config``."""
    rng = np.random.default_rng(config.seed)
    weights = zipf_weights(config.n_objects, config.alpha)
    sizes = sample_sizes(
        rng, config.n_objects, config.size_median, config.size_sigma,
        config.size_max,
    )
    object_ids = np.arange(config.n_objects, dtype=np.int64)
    sizes_by_id = {int(o): int(s) for o, s in zip(object_ids, sizes)}
    requests = _emit_requests(
        rng, object_ids, weights, sizes_by_id, config.n_requests,
        config.mean_interarrival, config.locality, config.locality_window,
    )
    return Trace(requests, name=f"zipf(a={config.alpha},n={config.n_objects})")


def generate_mixed_trace(
    classes: Sequence[ContentClass],
    class_shares: Sequence[float],
    n_requests: int,
    seed: int = 42,
    mean_interarrival: float = 1.0,
) -> Trace:
    """Generate a trace mixing several content classes.

    ``class_shares`` gives the fraction of requests drawn from each class;
    shares are normalised if they do not sum to one.  Object-id spaces of the
    classes are disjoint.
    """
    if len(classes) != len(class_shares):
        raise ValueError("classes and class_shares must have the same length")
    shares = np.asarray(class_shares, dtype=np.float64)
    if (shares < 0).any() or shares.sum() <= 0:
        raise ValueError("class_shares must be non-negative and sum > 0")
    shares = shares / shares.sum()

    rng = np.random.default_rng(seed)
    catalogues = _build_catalogues(rng, classes)

    class_draw = rng.choice(len(classes), size=n_requests, p=shares)
    gaps = rng.exponential(mean_interarrival, size=n_requests)
    times = np.cumsum(gaps)

    objs = _draw_objects(rng, catalogues, class_draw)
    requests: list[Request] = []
    for i in range(n_requests):
        _ids, _weights, sizes_by_id, costs_by_id = catalogues[class_draw[i]]
        obj = objs[i]
        requests.append(
            Request(
                float(times[i]), obj, sizes_by_id[obj],
                costs_by_id.get(obj, -1.0),
            )
        )
    return Trace(requests, name="mixed")


def _draw_objects(
    rng: np.random.Generator, catalogues: list[tuple], class_draw: np.ndarray
) -> list[int]:
    """One object per request, from the catalogue of its drawn class.

    The stream of ``int(rng.choice(ids, p=weights))`` once per request,
    which re-sums a catalogue-long CDF per draw: ``Generator.choice``
    with ``p`` consumes exactly one ``random()`` per draw and looks it up
    in the normalised cumulative weights, so one ``random(n)`` and one
    ``searchsorted`` per class yield the same objects
    (``tests/test_trace_synthetic.py`` keeps the loop as the reference).
    """
    uniforms = rng.random(len(class_draw))
    objs = np.empty(len(class_draw), dtype=np.int64)
    for index, (ids, weights, _sizes, _costs) in enumerate(catalogues):
        drawn = np.flatnonzero(class_draw == index)
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        objs[drawn] = ids[cdf.searchsorted(uniforms[drawn], side="right")]
    return objs.tolist()


def _build_catalogues(
    rng: np.random.Generator, classes: Sequence[ContentClass]
) -> list[tuple]:
    """Per-class (ids, weights, sizes, costs) with disjoint id spaces."""
    catalogues = []
    base = 0
    for cls in classes:
        ids = np.arange(base, base + cls.n_objects, dtype=np.int64)
        weights = zipf_weights(cls.n_objects, cls.alpha)
        sizes = sample_sizes(
            rng, cls.n_objects, cls.size_median, cls.size_sigma, cls.size_max
        )
        costs_by_id: dict[int, float] = {}
        if cls.cost_median is not None:
            costs = rng.lognormal(
                mean=np.log(cls.cost_median), sigma=cls.cost_sigma,
                size=cls.n_objects,
            )
            costs_by_id = {int(o): float(c) for o, c in zip(ids, costs)}
        catalogues.append(
            (ids, weights, {int(o): int(s) for o, s in zip(ids, sizes)},
             costs_by_id)
        )
        base += cls.n_objects
    return catalogues


def generate_mix_shift_trace(
    classes: Sequence[ContentClass],
    phase_shares: Sequence[Sequence[float]],
    requests_per_phase: int,
    seed: int = 42,
) -> Trace:
    """Generate a trace whose content mix shifts between phases.

    Models the §1 scenario where load balancing redirects a different content
    mix to a server "within minutes": each phase draws ``requests_per_phase``
    requests with its own class shares, over a shared catalogue so object
    history carries across phases.
    """
    rng = np.random.default_rng(seed)
    catalogues = _build_catalogues(rng, classes)

    requests: list[Request] = []
    time = 0.0
    for shares_raw in phase_shares:
        shares = np.asarray(shares_raw, dtype=np.float64)
        shares = shares / shares.sum()
        class_draw = rng.choice(len(classes), size=requests_per_phase, p=shares)
        gaps = rng.exponential(1.0, size=requests_per_phase)
        objs = _draw_objects(rng, catalogues, class_draw)
        for i in range(requests_per_phase):
            time += float(gaps[i])
            _ids, _weights, sizes_by_id, costs_by_id = catalogues[class_draw[i]]
            obj = objs[i]
            requests.append(
                Request(time, obj, sizes_by_id[obj], costs_by_id.get(obj, -1.0))
            )
    return Trace(requests, name="mix-shift")


def generate_adversarial_scan(
    n_requests: int,
    object_size: int = 64_000,
    seed: int = 0,
    start_obj: int = 10_000_000,
    start_time: float = 0.0,
) -> Trace:
    """A one-touch scan: every request hits a brand-new object.

    Scans are the classic adversarial pattern for admission policies — an
    LRU cache pollutes completely, while OPT admits nothing.  Useful for
    robustness tests (§1: "unexpected (or even adversarial) traffic").
    """
    del seed  # deterministic by construction; kept for API symmetry
    requests = [
        Request(start_time + i, start_obj + i, object_size)
        for i in range(n_requests)
    ]
    return Trace(requests, name="scan")

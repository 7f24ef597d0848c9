"""Multi-policy comparison harness (the machinery behind Figures 1 and 6)."""

from __future__ import annotations

from typing import Callable, Sequence

from ..cache import (
    AdaptSizeCache,
    CachePolicy,
    GDSFCache,
    GDWheelCache,
    HyperbolicCache,
    LFUDACache,
    LHDCache,
    LRUCache,
    LRUKCache,
    RandomCache,
    RLCache,
    S4LRUCache,
    TinyLFUCache,
)
from ..trace import Trace
from .runner import SimResult, simulate

__all__ = ["policy_factories", "compare_policies", "format_table"]

PolicyFactory = Callable[[int], CachePolicy]


def policy_factories(subset: Sequence[str] | None = None) -> dict[str, PolicyFactory]:
    """Factories for the paper's comparison policies, keyed by name: the
    Figure 1 set (RND, LRU, RLC against GDSF) and the Figure 6 zoo.

    Args:
        subset: optional list of names to keep (order preserved).

    Raises:
        KeyError: a name in ``subset`` is not one of them; the message
            names the unknown and the known policies.
    """
    all_factories: dict[str, PolicyFactory] = {
        "RND": lambda size: RandomCache(size),
        "LRU": lambda size: LRUCache(size),
        "LRU-K": lambda size: LRUKCache(size),
        "LFUDA": lambda size: LFUDACache(size),
        "S4LRU": lambda size: S4LRUCache(size),
        "GDSF": lambda size: GDSFCache(size),
        "GD-Wheel": lambda size: GDWheelCache(size),
        "AdaptSize": lambda size: AdaptSizeCache(size),
        "Hyperbolic": lambda size: HyperbolicCache(size),
        "LHD": lambda size: LHDCache(size),
        "TinyLFU": lambda size: TinyLFUCache(size),
        "RLC": lambda size: RLCache(size),
    }
    if subset is None:
        return all_factories
    missing = [name for name in subset if name not in all_factories]
    if missing:
        raise KeyError(
            f"unknown policies: {', '.join(missing)}; "
            f"known: {', '.join(all_factories)}"
        )
    return {name: all_factories[name] for name in subset}


def compare_policies(
    trace: Trace,
    cache_size: int,
    factories: dict[str, PolicyFactory] | None = None,
    warmup_fraction: float = 0.2,
) -> dict[str, SimResult]:
    """Simulate each policy on the same trace; returns results by name."""
    if factories is None:
        factories = policy_factories()
    results: dict[str, SimResult] = {}
    for name, factory in factories.items():
        results[name] = simulate(
            trace, factory(cache_size), warmup_fraction=warmup_fraction
        )
    return results


def format_table(
    results: dict[str, SimResult], sort_by: str = "bhr"
) -> str:
    """Render results as an aligned text table sorted by a metric."""
    if sort_by not in ("bhr", "ohr"):
        raise ValueError("sort_by must be 'bhr' or 'ohr'")
    rows = sorted(
        results.values(), key=lambda r: getattr(r, sort_by), reverse=True
    )
    width = max(len(r.policy) for r in rows)
    lines = [f"{'policy':<{width}}  {'BHR':>7}  {'OHR':>7}"]
    for r in rows:
        lines.append(f"{r.policy:<{width}}  {r.bhr:>7.4f}  {r.ohr:>7.4f}")
    return "\n".join(lines)

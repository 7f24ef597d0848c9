"""LFO — Learning From OPT for CDN caching.

A from-scratch reproduction of Berger, *Towards Lightweight and Robust
Machine Learning for CDN Caching* (HotNets 2018), including every substrate
the paper depends on: a min-cost-flow computation of offline-optimal caching
decisions, a histogram-based gradient-boosted decision tree learner, an
online feature tracker, a cache simulator with the full policy zoo the paper
compares against, and synthetic CDN workload generators.

Quickstart::

    from repro import SyntheticConfig, generate_trace, LFOOnline, simulate
    from repro.cache import LRUCache

    trace = generate_trace(SyntheticConfig(n_requests=30_000))
    cache_size = trace.footprint() // 10
    print(simulate(trace, LFOOnline(cache_size, window=5_000)).bhr)
    print(simulate(trace, LRUCache(cache_size)).bhr)
"""

from . import _lazy

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "core": (
        "IRLOnline", "TieredLFOOnline", "LFOCache", "LFOModel", "LFOOnline",
        "OptLabelConfig", "SampledEvictionConfig", "prepare_windows",
        "train_and_evaluate",
    ),
    "obs": (
        "MetricsRegistry", "NullRegistry", "get_registry", "set_registry",
        "use_registry",
    ),
    "opt": ("opt_hit_ratios", "solve_opt", "solve_pruned", "solve_segmented"),
    "serve": (
        "ServeConfig", "ServeReport", "ServingLoop", "SyntheticArrivalDriver",
        "TraceReplayDriver",
    ),
    "sim": ("compare_policies", "format_table", "simulate"),
    "trace": (
        "CostModel", "Request", "SyntheticConfig", "Trace",
        "generate_mix_shift_trace", "generate_mixed_trace", "generate_trace",
    ),
})
__all__ += ["__version__"]

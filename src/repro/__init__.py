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

from .core import (
    IRLOnline,
    LFOCache,
    LFOModel,
    LFOOnline,
    OptLabelConfig,
    SampledEvictionConfig,
    TieredLFOOnline,
    prepare_windows,
    train_and_evaluate,
)
from .obs import (
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from .opt import opt_hit_ratios, solve_opt, solve_pruned, solve_segmented
from .serve import (
    ServeConfig,
    ServeReport,
    ServingLoop,
    SyntheticArrivalDriver,
    TraceReplayDriver,
)
from .sim import compare_policies, format_table, simulate
from .trace import (
    CostModel,
    Request,
    SyntheticConfig,
    Trace,
    generate_mix_shift_trace,
    generate_mixed_trace,
    generate_trace,
)

__version__ = "1.0.0"

__all__ = [
    "IRLOnline",
    "TieredLFOOnline",
    "LFOCache",
    "LFOModel",
    "LFOOnline",
    "OptLabelConfig",
    "SampledEvictionConfig",
    "prepare_windows",
    "train_and_evaluate",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "opt_hit_ratios",
    "solve_opt",
    "solve_pruned",
    "solve_segmented",
    "ServeConfig",
    "ServeReport",
    "ServingLoop",
    "SyntheticArrivalDriver",
    "TraceReplayDriver",
    "compare_policies",
    "format_table",
    "simulate",
    "CostModel",
    "Request",
    "SyntheticConfig",
    "Trace",
    "generate_mix_shift_trace",
    "generate_mixed_trace",
    "generate_trace",
    "__version__",
]

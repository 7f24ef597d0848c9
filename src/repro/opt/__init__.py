"""Offline optimal caching (OPT): exact min-cost-flow solve, Belady
cross-check, and the paper's scaling approximations."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "belady": ("BeladyResult", "belady_unit_size"),
    "bounds": ("OptBounds", "opt_bhr_bounds", "opt_miss_cost_bounds"),
    "greedy": ("GreedyOptResult", "solve_greedy"),
    "mincost": (
        "OptResult", "build_opt_network", "opt_hit_ratios", "solve_opt",
    ),
    "segmentation": (
        "SegmentedOptResult", "decisions_to_miss_cost", "rank_requests",
        "solve_pruned", "solve_segmented",
    ),
})

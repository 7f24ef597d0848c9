"""Offline optimal caching (OPT): exact min-cost-flow solve, Belady
cross-check, and the paper's scaling approximations."""

from .belady import BeladyResult, belady_unit_size
from .bounds import OptBounds, opt_bhr_bounds, opt_miss_cost_bounds
from .greedy import GreedyOptResult, solve_greedy
from .mincost import OptResult, build_opt_network, opt_hit_ratios, solve_opt
from .segmentation import (
    SegmentedOptResult,
    decisions_to_miss_cost,
    rank_requests,
    solve_pruned,
    solve_segmented,
)

__all__ = [
    "BeladyResult",
    "belady_unit_size",
    "OptBounds",
    "opt_bhr_bounds",
    "opt_miss_cost_bounds",
    "GreedyOptResult",
    "solve_greedy",
    "OptResult",
    "build_opt_network",
    "opt_hit_ratios",
    "solve_opt",
    "SegmentedOptResult",
    "decisions_to_miss_cost",
    "rank_requests",
    "solve_pruned",
    "solve_segmented",
]

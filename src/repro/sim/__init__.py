"""Simulation engine and multi-policy comparison harness."""

from .comparison import compare_policies, format_table, policy_factories
from .metrics import BootstrapCI, paired_bootstrap_diff
from .hrc import (
    HitRatioCurve,
    lru_hit_ratio_curve,
    partition_cache,
    reuse_distance_bytes,
)
from .runner import SimResult, record_free_bytes, simulate
from .server import ServerConfig, ServerReport, simulate_server

__all__ = [
    "compare_policies",
    "format_table",
    "policy_factories",
    "BootstrapCI",
    "paired_bootstrap_diff",
    "HitRatioCurve",
    "lru_hit_ratio_curve",
    "partition_cache",
    "reuse_distance_bytes",
    "SimResult",
    "record_free_bytes",
    "simulate",
    "ServerConfig",
    "ServerReport",
    "simulate_server",
]

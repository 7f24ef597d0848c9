"""Simulation engine and multi-policy comparison harness."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "comparison": ("compare_policies", "format_table", "policy_factories"),
    "metrics": ("BootstrapCI", "paired_bootstrap_diff"),
    "runner": ("SimResult", "record_free_bytes", "simulate"),
    "server": ("ServerConfig", "ServerReport", "simulate_server"),
})

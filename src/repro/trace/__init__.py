"""Trace model, serialisation, synthetic workloads and statistics."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "record": ("CostModel", "Request", "Trace"),
    "transform": ("interleave",),
    "readers": (
        "iter_text_requests", "read_binary_trace", "read_text_trace",
        "write_binary_trace", "write_text_trace",
    ),
    "stats": ("TraceStats", "compute_stats"),
    "synthetic": (
        "ContentClass", "SyntheticConfig", "generate_adversarial_scan",
        "generate_mix_shift_trace", "generate_mixed_trace", "generate_trace",
        "sample_sizes", "zipf_weights",
    ),
})

"""Trace model, serialisation, synthetic workloads and statistics."""

from .calibration import (
    SizeFit,
    ZipfFit,
    calibration_report,
    fit_sizes,
    fit_zipf,
)
from .record import CostModel, Request, Trace
from .transform import interleave
from .readers import (
    iter_text_requests,
    read_binary_trace,
    read_text_trace,
    write_binary_trace,
    write_text_trace,
)
from .stats import TraceStats, compute_stats
from .synthetic import (
    ContentClass,
    SyntheticConfig,
    generate_adversarial_scan,
    generate_mix_shift_trace,
    generate_mixed_trace,
    generate_trace,
    sample_sizes,
    zipf_weights,
)

__all__ = [
    "SizeFit",
    "ZipfFit",
    "calibration_report",
    "fit_sizes",
    "fit_zipf",
    "interleave",
    "CostModel",
    "Request",
    "Trace",
    "iter_text_requests",
    "read_binary_trace",
    "read_text_trace",
    "write_binary_trace",
    "write_text_trace",
    "TraceStats",
    "compute_stats",
    "ContentClass",
    "SyntheticConfig",
    "generate_adversarial_scan",
    "generate_mix_shift_trace",
    "generate_mixed_trace",
    "generate_trace",
    "sample_sizes",
    "zipf_weights",
]

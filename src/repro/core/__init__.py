"""LFO core: model, cache policy, online loop, and experiment pipeline."""

from .cutoff import CutoffSweep, cutoff_sweep, equal_error_cutoff
from .engine import DecisionEngine
from .hierarchy import TieredLFOCache, TieredLFOOnline, TierStats
from .irl import IRLCache, IRLOnline, LinearRewardIRL
from .lfo import LFOCache, LFOModel, SampledEvictionConfig, error_rates
from .online import LabelFitJob, LFOOnline, OptLabelConfig
from .pipeline import (
    AccuracyReport,
    WindowData,
    prepare_windows,
    train_and_evaluate,
)
from .throughput import ThroughputPoint, gbits_served, measure_throughput
from .trainer import WindowTrainer

__all__ = [
    "DecisionEngine",
    "CutoffSweep",
    "cutoff_sweep",
    "equal_error_cutoff",
    "TieredLFOCache",
    "TieredLFOOnline",
    "TierStats",
    "IRLCache",
    "IRLOnline",
    "LinearRewardIRL",
    "LFOCache",
    "LFOModel",
    "LFOOnline",
    "LabelFitJob",
    "SampledEvictionConfig",
    "OptLabelConfig",
    "AccuracyReport",
    "WindowData",
    "error_rates",
    "prepare_windows",
    "train_and_evaluate",
    "ThroughputPoint",
    "gbits_served",
    "measure_throughput",
    "WindowTrainer",
]

"""LFO core: model, cache policy, online loop, and experiment pipeline."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "cutoff": ("CutoffSweep", "cutoff_sweep", "equal_error_cutoff"),
    "engine": ("DecisionEngine",),
    "hierarchy": ("TieredLFOCache", "TieredLFOOnline", "TierStats"),
    "irl": ("IRLCache", "IRLOnline", "LinearRewardIRL"),
    "lfo": ("LFOCache", "LFOModel", "SampledEvictionConfig", "error_rates"),
    "online": ("LabelFitJob", "LFOOnline", "OptLabelConfig"),
    "pipeline": (
        "AccuracyReport", "WindowData", "prepare_windows",
        "train_and_evaluate",
    ),
    "throughput": ("ThroughputPoint", "gbits_served", "measure_throughput"),
    "trainer": ("WindowTrainer",),
})

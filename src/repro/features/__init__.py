"""Online features (Section 2.2): sparse tracker and dataset assembly."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "dataset": ("Dataset", "thin_gaps"),
    "noise": ("add_relative_noise", "quantize_features"),
    "tracker": ("MISSING_GAP", "FeatureTracker", "feature_names"),
})

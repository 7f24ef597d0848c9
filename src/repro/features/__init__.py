"""Online features (Section 2.2): sparse tracker and dataset assembly."""

from .dataset import Dataset, thin_gaps
from .noise import add_relative_noise, quantize_features
from .tracker import MISSING_GAP, FeatureTracker, feature_names

__all__ = [
    "Dataset",
    "thin_gaps",
    "add_relative_noise",
    "quantize_features",
    "MISSING_GAP",
    "FeatureTracker",
    "feature_names",
]

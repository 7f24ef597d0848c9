"""Histogram-based gradient-boosted decision trees (LightGBM substitute)."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "binning": ("BinMapper",),
    "boosting": ("GBDTClassifier", "GBDTParams"),
    "compiled": ("CompiledPredictor", "kernel_available"),
    "losses": ("LogisticLoss", "sigmoid"),
    "tree": ("Tree", "grow_tree"),
})

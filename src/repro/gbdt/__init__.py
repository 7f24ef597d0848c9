"""Histogram-based gradient-boosted decision trees (LightGBM substitute)."""

from .binning import BinMapper
from .boosting import GBDTClassifier, GBDTParams
from .compiled import CompiledPredictor, kernel_available
from .losses import LogisticLoss, sigmoid
from .tree import Tree, TreeGrowthParams, grow_tree

__all__ = [
    "BinMapper",
    "CompiledPredictor",
    "GBDTClassifier",
    "GBDTParams",
    "LogisticLoss",
    "kernel_available",
    "sigmoid",
    "Tree",
    "TreeGrowthParams",
    "grow_tree",
]

"""Gradient boosting over binned decision trees.

Reproduces the LightGBM configuration the paper uses: 30 boosting
iterations (down from the library default of 100, Section 2.3), otherwise
default-ish parameters — leaf-wise trees with 31 leaves, learning rate 0.1,
optional bagging and feature subsampling seeded by ``seed`` (the knob swept
in Figure 5c).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..obs import get_registry
from .binning import BinMapper
from .compiled import CompiledPredictor
from .losses import LogisticLoss
from .tree import Tree, TreeGrowthParams, _bin_counts, _grow, _split_tables

__all__ = ["GBDTParams", "GBDTClassifier", "bin_matrix"]


def bin_matrix(X: np.ndarray, max_bins: int) -> tuple:
    """The fit's binning, ``(X, mapper, binned)``; it needs no label."""
    mapper = BinMapper(max_bins=max_bins)
    return X, mapper, mapper.fit_transform(X)


@dataclass(frozen=True)
class GBDTParams:
    """Hyperparameters; defaults mirror the paper's LightGBM setup."""

    num_iterations: int = 30
    learning_rate: float = 0.1
    num_leaves: int = 31
    min_data_in_leaf: int = 20
    min_sum_hessian_in_leaf: float = 1e-3
    lambda_l2: float = 0.0
    min_gain_to_split: float = 0.0
    max_depth: int = -1
    max_bins: int = 255
    bagging_fraction: float = 1.0
    feature_fraction: float = 1.0
    seed: int = 0

    def tree_params(self) -> TreeGrowthParams:
        """Per-tree growth parameters derived from the boosting params."""
        return TreeGrowthParams(
            num_leaves=self.num_leaves,
            min_data_in_leaf=self.min_data_in_leaf,
            min_sum_hessian_in_leaf=self.min_sum_hessian_in_leaf,
            lambda_l2=self.lambda_l2,
            min_gain_to_split=self.min_gain_to_split,
            max_depth=self.max_depth,
        )


class GBDTClassifier:
    """Binary classifier with logistic loss (the LFO predictor)."""

    def __init__(self, params: GBDTParams | None = None, **overrides) -> None:
        base = params or GBDTParams()
        if overrides:
            base = GBDTParams(**{**base.__dict__, **overrides})
        self.params = base
        self.trees: list[Tree] = []
        self.mapper: BinMapper | None = None
        self.init_score: float = 0.0
        self.n_features: int | None = None
        self._compiled: CompiledPredictor | None = None

    # -- training ---------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        binning: tuple[np.ndarray, BinMapper, np.ndarray] | None = None,
    ) -> "GBDTClassifier":
        """Fit the ensemble.

        Args:
            X: (n_samples, n_features) float matrix; must be finite.
            y: {0,1} labels.
            binning: :func:`bin_matrix` of this very ``X``, made in advance.
        """
        params = self.params
        if binning and (binning[0] is not X or binning[1].max_bins != params.max_bins):
            raise ValueError("binning was not made from this X at max_bins")
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")

        self.n_features = X.shape[1]
        _, self.mapper, binned = binning or bin_matrix(X, params.max_bins)
        self.init_score = LogisticLoss.init_score(y)
        raw = np.full(len(y), self.init_score, dtype=np.float64)

        self._compiled = None
        rng = np.random.default_rng(params.seed)
        n = len(y)
        tree_params = params.tree_params()
        self.trees = []

        # Per-iteration training time (gradients + tree growth + score
        # update); gated so a disabled registry costs nothing per iteration.
        registry = get_registry()
        timing = registry.enabled
        iteration_hist = registry.histogram("gbdt.iteration_seconds")

        # Split tables depend on the candidate features alone: without
        # feature subsampling one set serves every tree of the fit.
        n_bins = _bin_counts(self.mapper)
        fit_tables = None
        if not params.feature_fraction < 1.0:
            fit_tables = _split_tables(
                binned, n_bins, np.arange(self.n_features, dtype=np.int64)
            )

        for _ in range(params.num_iterations):
            iteration_start = perf_counter() if timing else 0.0
            grad, hess = LogisticLoss.grad_hess(y, raw)
            sample_idx = None
            if params.bagging_fraction < 1.0:
                k = max(1, int(round(params.bagging_fraction * n)))
                sample_idx = np.sort(rng.choice(n, size=k, replace=False))
            tables = fit_tables
            if tables is None:
                k = max(1, int(round(params.feature_fraction * self.n_features)))
                feature_subset = np.sort(
                    rng.choice(self.n_features, size=k, replace=False)
                )
                tables = _split_tables(binned, n_bins, feature_subset)
            tree, leaves = _grow(
                tables, grad, hess, self.mapper, tree_params, sample_idx
            )
            self.trees.append(tree)
            if sample_idx is None:
                # Growth left every row in its leaf: the product and the
                # add `predict_binned` would make, without the walk.
                for node, rows in leaves.items():
                    raw[rows] += params.learning_rate * tree.value[node]
            else:
                raw += params.learning_rate * tree.predict_binned(binned)
            if timing:
                iteration_hist.observe(perf_counter() - iteration_start)
        return self

    # -- prediction ---------------------------------------------------------

    def compiled(self) -> CompiledPredictor:
        """The flattened fast predictor for this fitted ensemble.

        Built once and cached; refitting invalidates the cache.  The
        returned predictor is immutable and safe to share across
        threads, which is how :class:`repro.core.lfo.LFOModel` and the
        batched simulator avoid any per-request compilation cost.
        """
        if self.mapper is None or self.n_features is None:
            raise RuntimeError("model is not fitted")
        if self._compiled is None:
            self._compiled = CompiledPredictor.from_ensemble(
                self.trees,
                self.init_score,
                self.params.learning_rate,
                self.n_features,
            )
        return self._compiled

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        """Sum of tree outputs plus the init score (pre-link scores).

        Reference implementation: walks every tree's node table in
        Python.  Kept as the numerical ground truth the compiled
        predictor is tested against; hot paths go through
        :meth:`compiled` instead.
        """
        if self.mapper is None:
            raise RuntimeError("model is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        raw = np.full(X.shape[0], self.init_score, dtype=np.float64)
        for tree in self.trees:
            raw += self.params.learning_rate * tree.predict_raw_values(X)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of the positive class per sample."""
        return LogisticLoss.transform(self.predict_raw(X))

    def predict(self, X: np.ndarray, cutoff: float = 0.5) -> np.ndarray:
        """Boolean predictions at a probability cutoff."""
        return self.predict_proba(X) >= cutoff

    def feature_importance(self, kind: str = "split") -> np.ndarray:
        """Per-feature importance.

        ``kind='split'`` counts how often each feature occurs in a tree
        branch — exactly the measure behind the paper's Figure 8.
        ``kind='gain'`` sums the loss reduction each feature's splits
        achieved (LightGBM's ``importance_type='gain'``).
        """
        if self.n_features is None:
            raise RuntimeError("model is not fitted")
        if kind == "split":
            counts = np.zeros(self.n_features, dtype=np.int64)
            for tree in self.trees:
                for f in tree.split_features():
                    counts[f] += 1
            return counts
        if kind == "gain":
            gains = np.zeros(self.n_features, dtype=np.float64)
            for tree in self.trees:
                for f, g in tree.split_gains():
                    gains[f] += g
            return gains
        raise ValueError("kind must be 'split' or 'gain'")

    def feature_importance_fraction(self) -> np.ndarray:
        """Split counts normalised to fractions (Fig. 8's y-axis)."""
        counts = self.feature_importance().astype(np.float64)
        total = counts.sum()
        return counts / total if total > 0 else counts

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable model state."""
        if self.mapper is None:
            raise RuntimeError("model is not fitted")
        return {
            "params": self.params.__dict__,
            "init_score": self.init_score,
            "n_features": self.n_features,
            "mapper": self.mapper.to_dict(),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, state: dict) -> "GBDTClassifier":
        """Inverse of :meth:`to_dict`."""
        model = cls(GBDTParams(**state["params"]))
        model.init_score = state["init_score"]
        model.n_features = state["n_features"]
        model.mapper = BinMapper.from_dict(state["mapper"])
        model.trees = [Tree.from_dict(t) for t in state["trees"]]
        return model

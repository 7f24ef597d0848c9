"""Quantile feature binning for histogram-based tree growth.

LightGBM's core trick — and the reason the paper's trees are "lightweight" —
is discretising every feature into at most 255 bins up front, so that split
finding reduces to summing gradients per bin.  This module reproduces that:
:class:`BinMapper` learns per-feature quantile bin edges on the training set
and maps raw float matrices to ``uint8`` bin indices.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BinMapper"]


class BinMapper:
    """Learns and applies per-feature quantile binning.

    Attributes:
        max_bins: maximum number of bins per feature (≤ 255 so bins fit a
            uint8).
        upper_bounds: list (per feature) of ascending bin upper boundaries;
            values ≤ ``upper_bounds[f][b]`` fall into bin ``b``.  The last
            bin is unbounded.
    """

    def __init__(self, max_bins: int = 255) -> None:
        if not 2 <= max_bins <= 255:
            raise ValueError("max_bins must be in [2, 255]")
        self.max_bins = max_bins
        self.upper_bounds: list[np.ndarray] = []
        self.n_features: int | None = None

    def fit(self, X: np.ndarray) -> "BinMapper":
        """Learn bin boundaries from a (n_samples, n_features) matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if not np.isfinite(X).all():
            raise ValueError("X must be finite; encode missing values "
                             "as finite sentinels before binning")
        self.n_features = X.shape[1]
        uniques = [np.unique(X[:, f]) for f in range(self.n_features)]
        wide = [
            f for f, values in enumerate(uniques)
            if len(values) > self.max_bins
        ]
        # One call for every quantile-binned column: numpy selects and
        # interpolates along the axis lane by lane, so column f's cuts
        # are the floats ``np.percentile(X[:, f], qs)`` returns.
        qs = np.linspace(0, 100, self.max_bins + 1)[1:-1]
        cuts = dict(zip(wide, np.percentile(X[:, wide], qs, axis=0).T))
        self.upper_bounds = []
        for f, values in enumerate(uniques):
            if f in cuts:
                bounds = np.unique(cuts[f])
            elif len(values) == 1:
                bounds = np.array([], dtype=np.float64)
            else:
                # One bin per distinct value; boundaries at midpoints.
                bounds = (values[:-1] + values[1:]) / 2.0
            self.upper_bounds.append(bounds.astype(np.float64))
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map raw values to uint8 bin indices via the learned boundaries."""
        if self.n_features is None:
            raise RuntimeError("BinMapper must be fitted before transform")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape}"
            )
        binned = np.empty(X.shape, dtype=np.uint8)
        for f in range(self.n_features):
            binned[:, f] = np.searchsorted(
                self.upper_bounds[f], X[:, f], side="left"
            )
        return binned

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit and transform in one call."""
        return self.fit(X).transform(X)

    def n_bins(self, feature: int) -> int:
        """Number of occupied bins for a feature."""
        return len(self.upper_bounds[feature]) + 1

    def threshold_value(self, feature: int, bin_index: int) -> float:
        """Raw-value threshold of "go left if value ≤ threshold" for a split
        that sends bins ``<= bin_index`` left."""
        bounds = self.upper_bounds[feature]
        if bin_index >= len(bounds):
            return float("inf")
        return float(bounds[bin_index])

    def to_dict(self) -> dict:
        """JSON-serialisable state."""
        return {
            "max_bins": self.max_bins,
            "n_features": self.n_features,
            "upper_bounds": [b.tolist() for b in self.upper_bounds],
        }

    @classmethod
    def from_dict(cls, state: dict) -> "BinMapper":
        """Inverse of :meth:`to_dict`."""
        mapper = cls(max_bins=state["max_bins"])
        mapper.n_features = state["n_features"]
        mapper.upper_bounds = [
            np.asarray(b, dtype=np.float64) for b in state["upper_bounds"]
        ]
        return mapper

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

_BIN_IDS = np.arange(256, dtype=np.uint8)


def _quantiles(max_bins: int) -> np.ndarray:
    """The percentiles whose values cut a column into ``max_bins`` bins."""
    return np.linspace(0, 100, max_bins + 1)[1:-1]


def _sorted_percentiles(ordered: np.ndarray, max_bins: int) -> np.ndarray:
    """``np.percentile(ordered, _quantiles(max_bins), axis=-1)`` of sorted
    values (at least two per row), by numpy's own ``"linear"`` rule: the
    same floats, read off the sort instead of a partition."""
    n = ordered.shape[-1]
    virtual = (n - 1) * np.true_divide(_quantiles(max_bins), 100)
    below = np.floor(virtual)
    gamma = virtual - below
    index = below.astype(np.intp)
    lo, hi = ordered[..., index], ordered[..., index + 1]
    diff = hi - lo
    # numpy's ``_lerp``: up from ``lo``, or down from ``hi`` where
    # ``gamma >= 0.5``.
    return np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D float array by its own algorithm (a sort,
    then the first of each run of equal values), without the ``numpy.ma``
    import (~10 ms) that numpy 2.4's ``np.unique`` makes on its first call.
    The sort runs even on sorted input: it decides which of -0.0 and 0.0
    heads a run of zeros, and so which one ``np.unique`` returns."""
    values = np.sort(values)
    first = np.empty(values.shape, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _column_bounds(column: np.ndarray, max_bins: int) -> np.ndarray:
    """One column's bounds from ``np.unique`` and ``np.percentile``: the
    definition :meth:`BinMapper.fit` reproduces from its sort."""
    values = np.unique(column)
    if len(values) > max_bins:
        return np.unique(np.percentile(column, _quantiles(max_bins)))
    return (values[:-1] + values[1:]) / 2.0


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
        self._fit_columns(X, None)
        return self

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """``fit(X).transform(X)`` byte for byte, binned from the fit's
        sorts: the ``uint8`` result is its only ``(n, d)`` allocation."""
        X = np.asarray(X, dtype=np.float64)
        binned = np.empty(X.shape, dtype=np.uint8)
        self._fit_columns(X, binned)
        return binned

    def _fit_columns(self, X: np.ndarray, binned: np.ndarray | None) -> None:
        """:meth:`fit`, one column at a time from that column's argsort;
        with ``binned``, each column's bin ids are scattered into it too.

        The bounds cut the sorted column into runs of one bin id each, so
        the ids need no search per value.  Nothing held here is larger
        than a column: the fit costs no temporary the size of ``X``.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        n_samples, n_features = X.shape
        upper_bounds = []
        for f in range(n_features):
            column = X[:, f]
            order = np.argsort(column)
            ordered = column[order]
            # The sort puts -inf first and +inf, then NaN, last.
            if n_samples and not (
                np.isfinite(ordered[0]) and np.isfinite(ordered[-1])
            ):
                raise ValueError("X must be finite; encode missing values "
                                 "as finite sentinels before binning")
            fresh = np.empty(n_samples, dtype=bool)
            fresh[:1] = True
            np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
            # -0.0 and 0.0 compare equal, so which one lands on an order
            # statistic is the sort's (or the partition's) choice: a
            # column holding both takes the per-column calls.  The zeros
            # are one run of the sort.
            zeros = np.signbit(ordered[
                np.searchsorted(ordered, 0.0, side="left"):
                np.searchsorted(ordered, 0.0, side="right")
            ])
            if zeros.any() and not zeros.all():
                bounds = _column_bounds(column, self.max_bins)
            elif np.count_nonzero(fresh) > self.max_bins:
                # Then n_samples > max_bins >= 2.
                bounds = sorted_unique(
                    _sorted_percentiles(ordered, self.max_bins)
                )
            else:
                # One bin per distinct value; boundaries at midpoints.
                values = ordered[fresh]
                bounds = (values[:-1] + values[1:]) / 2.0
            upper_bounds.append(bounds)
            if binned is not None:
                # Where each bin starts and ends in the sort.
                edges = np.zeros(len(bounds) + 2, dtype=np.intp)
                edges[1:-1] = np.searchsorted(ordered, bounds, side="right")
                edges[-1] = n_samples
                ids = _BIN_IDS[: len(bounds) + 1]
                binned[:, f][order] = np.repeat(ids, edges[1:] - edges[:-1])
        self.n_features = n_features
        self.upper_bounds = upper_bounds

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

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
    """``np.percentile(row, _quantiles(max_bins))`` of each sorted row
    (at least two values), by numpy's own ``"linear"`` rule: the same
    floats, read off the sort instead of a partition."""
    n = ordered.shape[1]
    virtual = (n - 1) * np.true_divide(_quantiles(max_bins), 100)
    below = np.floor(virtual)
    gamma = virtual - below
    index = below.astype(np.intp)
    lo, hi = ordered[:, index], ordered[:, index + 1]
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
        self._fit_sorted(X)
        return self

    def _fit_sorted(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`fit` from one argsort of every column.

        Returns ``(ordered, order)``: the ``(n_features, n_samples)``
        sorted columns, and where each sorted value sits in the flattened
        ``X.T``.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if not np.isfinite(X).all():
            raise ValueError("X must be finite; encode missing values "
                             "as finite sentinels before binning")
        n_samples, self.n_features = X.shape
        columns = np.ascontiguousarray(X.T)
        order = np.argsort(columns, axis=1)
        order += np.arange(self.n_features)[:, None] * n_samples
        ordered = columns.ravel()[order]
        fresh = np.ones(ordered.shape, dtype=bool)
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=fresh[:, 1:])
        wide = np.count_nonzero(fresh, axis=1) > self.max_bins
        if wide.any():  # then n_samples > max_bins >= 2
            cuts = _sorted_percentiles(ordered, self.max_bins)
        # -0.0 and 0.0 compare equal, so which one lands on an order
        # statistic is the sort's (or the partition's) choice: a column
        # holding both takes the per-column calls.  -0.0 is the one value
        # >= 0 with its sign bit set, 0.0 the one <= 0 without.
        sign = np.signbit(ordered)
        mixed = (
            (sign & (ordered >= 0)).any(axis=1)
            & (~sign & (ordered <= 0)).any(axis=1)
        )
        self.upper_bounds = []
        for f in range(self.n_features):
            if mixed[f]:
                bounds = _column_bounds(X[:, f], self.max_bins)
            elif wide[f]:
                bounds = sorted_unique(cuts[f])
            else:
                # One bin per distinct value; boundaries at midpoints.
                values = ordered[f][fresh[f]]
                bounds = (values[:-1] + values[1:]) / 2.0
            self.upper_bounds.append(bounds)
        return ordered, order

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
        """``fit(X).transform(X)`` byte for byte, binned from the fit's
        sort: each column's bounds cut its sorted values into runs of one
        bin id, and one scatter puts every value's id back in its row."""
        ordered, order = self._fit_sorted(X)
        n_samples = ordered.shape[1]
        ends, ids = [], []
        for f, bounds in enumerate(self.upper_bounds):
            # Where each of the column's bins ends in the flattened sort.
            start = f * n_samples
            edges = np.searchsorted(ordered[f], bounds, side="right") + start
            ends += (edges, [start + n_samples])
            ids.append(_BIN_IDS[: len(bounds) + 1])
        runs = np.diff(np.concatenate(ends), prepend=0)
        binned = np.empty(ordered.size, dtype=np.uint8)
        binned[order.ravel()] = np.repeat(np.concatenate(ids), runs)
        return np.ascontiguousarray(binned.reshape(ordered.shape).T)

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

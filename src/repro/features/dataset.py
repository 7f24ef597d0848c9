"""Assembling (features, OPT label) training datasets from a trace window.

This ties the substrates together: walk the window once, emitting each
request's online feature vector *as it would have been observed live* (the
free-bytes feature comes from simulating a cache alongside), paired with the
OPT decision computed offline for the same window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..trace import Trace
from .tracker import FeatureTracker, feature_names

__all__ = ["Dataset", "build_features", "build_dataset", "thin_gaps"]


@dataclass
class Dataset:
    """A training dataset: features ``X``, labels ``y``, column names."""

    X: np.ndarray
    y: np.ndarray
    names: list[str]

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, idx: np.ndarray) -> "Dataset":
        """Row subset (e.g. for subsampling experiments)."""
        return Dataset(self.X[idx], self.y[idx], self.names)


def build_features(
    trace: Trace,
    tracker: FeatureTracker,
    free_bytes_fn: Callable[[int], int] | None = None,
    cache_size: int = 0,
) -> np.ndarray:
    """Feature matrix for every request of a window, in trace order.

    Args:
        trace: the window to featurise.
        tracker: feature state, mutated in place (pass a fresh tracker for
            an isolated window, or carry one across windows for the online
            pipeline).
        free_bytes_fn: called with the request index, returns the cache's
            free bytes observed at that request.  When None, a pessimistic
            constant (``cache_size``) is used.
        cache_size: fallback free-bytes value when ``free_bytes_fn`` is None.
    """
    if free_bytes_fn is not None:
        free = np.array(
            [free_bytes_fn(i) for i in range(len(trace))],
            dtype=np.float64,
        )
    else:
        free = float(cache_size)
    return tracker.features_batch(
        trace.objs.tolist(), trace.times, trace.sizes, trace.costs, free,
        update=True,
    )


def build_dataset(
    trace: Trace,
    decisions: np.ndarray,
    tracker: FeatureTracker | None = None,
    free_bytes: np.ndarray | None = None,
    cache_size: int = 0,
) -> Dataset:
    """Pair per-request features with OPT labels for a window.

    Args:
        trace: the window.
        decisions: OPT's per-request admission decisions (same length).
        tracker: optional pre-warmed tracker (fresh one created if None).
        free_bytes: optional per-request observed free bytes; constant
            ``cache_size`` when omitted.
        cache_size: fallback free-bytes constant.
    """
    if len(decisions) != len(trace):
        raise ValueError("decisions length must match trace length")
    if tracker is None:
        tracker = FeatureTracker()
    fn = None
    if free_bytes is not None:
        if len(free_bytes) != len(trace):
            raise ValueError("free_bytes length must match trace length")
        fn = lambda i: int(free_bytes[i])  # noqa: E731
    X = build_features(trace, tracker, free_bytes_fn=fn, cache_size=cache_size)
    y = np.asarray(decisions, dtype=np.float64)
    return Dataset(X, y, feature_names(tracker.n_gaps))


def thin_gaps(dataset: Dataset, keep_gaps: list[int]) -> Dataset:
    """Keep only a subset of gap features (paper §3, Figure 8 discussion:
    "artificially thinning out the time gap feature space (e.g., only using
    time gaps 1, 2, 4, 8, 16, etc.)").

    Args:
        dataset: full dataset with columns size, cost, free_bytes, gap_1..N.
        keep_gaps: 1-based gap indices to retain, e.g. ``[1, 2, 4, 8, 16]``.
    """
    base = [0, 1, 2]
    name_to_col = {name: i for i, name in enumerate(dataset.names)}
    cols = base + [name_to_col[f"gap_{k}"] for k in keep_gaps]
    names = [dataset.names[c] for c in cols]
    return Dataset(dataset.X[:, cols], dataset.y, names)

"""The (features, OPT label) training dataset and its gap thinning.

:func:`repro.core.prepare_windows` assembles one per window: each
request's online feature vector *as it would have been observed live*,
paired with the OPT decision computed offline for the same window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "thin_gaps"]


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

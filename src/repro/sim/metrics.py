"""Statistical utilities for comparing cache policies.

Hit ratios are means over correlated request streams, so eyeballing a
0.5% BHR difference is not evidence.  :func:`paired_bootstrap_diff` puts
error bars on the *difference* between two policies simulated on the same
trace: a block bootstrap (blocks preserve the local request correlation
that i.i.d. resampling would destroy) that resamples the shared blocks so
trace randomness cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BootstrapCI", "paired_bootstrap_diff"]


@dataclass(frozen=True)
class BootstrapCI:
    """A bootstrap estimate with a two-sided confidence interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float

    @property
    def width(self) -> float:
        """Interval width (a direct readability measure)."""
        return self.upper - self.lower

    def excludes_zero(self) -> bool:
        """True when the interval lies strictly on one side of zero."""
        return self.lower > 0.0 or self.upper < 0.0


def _block_indices(
    n: int, block: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample block starts with replacement and expand to request indices.

    Starts are drawn from ``[0, n - block]`` inclusive (``block <= n``), so
    every request, the last one included, can land in a resample.
    """
    n_blocks = int(np.ceil(n / block))
    starts = rng.integers(0, n - block + 1, size=n_blocks)
    idx = (starts[:, None] + np.arange(block)[None, :]).ravel()
    return idx[:n]


def paired_bootstrap_diff(
    hits_a: np.ndarray,
    hits_b: np.ndarray,
    sizes: np.ndarray,
    n_resamples: int = 500,
    block: int = 500,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapCI:
    """CI for ``BHR(a) - BHR(b)`` of two policies on the same trace.

    Both hit vectors are resampled with the *same* blocks, so workload
    randomness cancels and only the policies' disagreement drives the
    interval.  ``excludes_zero()`` is the significance verdict.
    """
    hits_a = np.asarray(hits_a, dtype=bool)
    hits_b = np.asarray(hits_b, dtype=bool)
    sizes = np.asarray(sizes, dtype=np.float64)
    if not (len(hits_a) == len(hits_b) == len(sizes)):
        raise ValueError("inputs must align")
    if len(sizes) == 0:
        raise ValueError("cannot bootstrap an empty simulation")
    rng = np.random.default_rng(seed)
    n = len(sizes)
    block = min(block, n)
    point = float(
        sizes[hits_a].sum() / sizes.sum() - sizes[hits_b].sum() / sizes.sum()
    )
    stats = np.empty(n_resamples)
    for b in range(n_resamples):
        idx = _block_indices(n, block, rng)
        s = sizes[idx]
        total = s.sum()
        stats[b] = s[hits_a[idx]].sum() / total - s[hits_b[idx]].sum() / total
    alpha = (1.0 - confidence) / 2.0
    return BootstrapCI(
        estimate=point,
        lower=float(np.quantile(stats, alpha)),
        upper=float(np.quantile(stats, 1.0 - alpha)),
        confidence=confidence,
    )

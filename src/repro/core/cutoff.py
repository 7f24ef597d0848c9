"""Cutoff analysis (Figure 5a) and cutoff auto-tuning.

The paper observes that false positive and false negative rates plateau for
cutoffs between 0.25 and 0.75, and that raising the cutoff to ~0.65
equalises the two.  :func:`cutoff_sweep` regenerates the curve;
:func:`equal_error_cutoff` finds the equalising threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lfo import error_rates

__all__ = ["CutoffSweep", "cutoff_sweep", "equal_error_cutoff"]


@dataclass(frozen=True)
class CutoffSweep:
    """FP/FN rates over a grid of cutoffs (the data behind Figure 5a)."""

    cutoffs: np.ndarray
    false_positive: np.ndarray
    false_negative: np.ndarray

    @property
    def prediction_error(self) -> np.ndarray:
        """Total error (FP + FN) per cutoff."""
        return self.false_positive + self.false_negative


def cutoff_sweep(
    likelihoods: np.ndarray,
    labels: np.ndarray,
    cutoffs: np.ndarray | None = None,
) -> CutoffSweep:
    """Compute FP/FN rates over a cutoff grid.

    Args:
        likelihoods: model's predicted admission probabilities.
        labels: OPT's decisions for the same requests.
        cutoffs: grid (default: 0.0 .. 1.0 in steps of 0.02).
    """
    if cutoffs is None:
        cutoffs = np.linspace(0.0, 1.0, 51)
    fps = np.empty(len(cutoffs))
    fns = np.empty(len(cutoffs))
    for i, cutoff in enumerate(cutoffs):
        _, fps[i], fns[i] = error_rates(likelihoods, labels, float(cutoff))
    return CutoffSweep(
        cutoffs=np.asarray(cutoffs, dtype=np.float64),
        false_positive=fps,
        false_negative=fns,
    )


def equal_error_cutoff(likelihoods: np.ndarray, labels: np.ndarray) -> float:
    """Cutoff where FP and FN rates cross (the paper's ~0.65 point)."""
    sweep = cutoff_sweep(likelihoods, labels, np.linspace(0.0, 1.0, 201))
    gap = np.abs(sweep.false_positive - sweep.false_negative)
    return float(sweep.cutoffs[int(np.argmin(gap))])

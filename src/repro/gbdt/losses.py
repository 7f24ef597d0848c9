"""The logistic loss of gradient boosting.

It provides the per-sample gradient and hessian of the objective with
respect to the raw (pre-link) score, plus the constant initial score that
minimises the loss — the standard second-order boosting setup.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LogisticLoss", "sigmoid"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: ``1 / (1 + exp(-x))`` for
    ``x >= 0`` and ``exp(x) / (1 + exp(x))`` below, both over the one
    ``e = exp(-|x|)`` (which never overflows)."""
    e = np.exp(-np.abs(x))
    denominator = 1.0 + e
    return np.where(x >= 0, 1.0 / denominator, e / denominator)


class LogisticLoss:
    """Binary cross-entropy on raw scores (labels in {0, 1})."""

    name = "logistic"

    @staticmethod
    def init_score(y: np.ndarray) -> float:
        """Log-odds of the positive class, clipped away from infinities."""
        p = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        return float(np.log(p / (1 - p)))

    @staticmethod
    def grad_hess(y: np.ndarray, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient ``p - y`` and hessian ``p (1 - p)``."""
        p = sigmoid(raw)
        return p - y, p * (1.0 - p)

    @staticmethod
    def transform(raw: np.ndarray) -> np.ndarray:
        """Raw score -> probability."""
        return sigmoid(raw)

    @staticmethod
    def loss(y: np.ndarray, raw: np.ndarray) -> float:
        """Mean binary cross-entropy."""
        p = np.clip(sigmoid(raw), 1e-12, 1 - 1e-12)
        return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())

"""Drift detection and early retraining.

The paper's motivation (§1) is that content mixes can change "within
minutes" — faster than a fixed retraining window may react.  The fixed
Figure-2 loop retrains every W requests regardless; this module adds the
obvious production refinement:

* :class:`DriftDetector` — a population-stability-index (PSI) monitor over
  the online feature distribution: the reference histogram comes from the
  last training window, and a live window is scored against it;
* :class:`AdaptiveLFOOnline` — LFOOnline plus the detector: when the PSI
  of the live stream exceeds a threshold mid-window, retraining happens
  immediately on the partial buffer instead of waiting for the boundary.

PSI is the standard drift score for tabular features:
``sum((p_live - p_ref) * ln(p_live / p_ref))`` over quantile bins.  The
detector reports the *maximum* PSI across monitored features — a mix shift
often moves one dimension (e.g. object sizes) dramatically while leaving
the rest alone, and averaging would dilute exactly that signal.  PSI > 0.25
on any feature is conventionally "major shift".
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..obs.slo import population_stability_index
from ..trace import Request
from .online import LFOOnline, OptLabelConfig

__all__ = ["DriftDetector", "AdaptiveLFOOnline"]


class DriftDetector:
    """Population-stability-index monitor over feature matrices.

    Args:
        n_bins: quantile bins per feature.
        features: optional column subset to monitor (default: all).
            Monitoring only the *workload-describing* columns (size, cost,
            gaps) and skipping free-bytes avoids self-triggering: the
            cache's own fill level changes whenever the policy changes.
    """

    def __init__(
        self, n_bins: int = 10, features: list[int] | None = None
    ) -> None:
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        self.n_bins = n_bins
        self.features = features
        self._edges: list[np.ndarray] | None = None
        self._reference: list[list[int]] | None = None

    def fit(self, X: np.ndarray) -> "DriftDetector":
        """Learn reference quantile bins from a training window."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("X must be a non-empty 2-D matrix")
        cols = self.features or list(range(X.shape[1]))
        self._edges = []
        self._reference = []
        qs = np.linspace(0, 100, self.n_bins + 1)[1:-1]
        for c in cols:
            col = X[:, c]
            edges = np.unique(np.percentile(col, qs))
            self._edges.append(edges)
            self._reference.append(self._bucket_counts(edges, col))
        return self

    @staticmethod
    def _bucket_counts(edges: np.ndarray, col: np.ndarray) -> list[int]:
        return np.bincount(
            np.searchsorted(edges, col, side="left"),
            minlength=len(edges) + 1,
        ).tolist()

    def score(self, X: np.ndarray) -> float:
        """Maximum per-feature PSI of a live window vs the reference."""
        if self._edges is None:
            raise RuntimeError("detector is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if len(X) == 0:
            return 0.0
        cols = self.features or list(range(X.shape[1]))
        worst = 0.0
        for k, c in enumerate(cols):
            live = self._bucket_counts(self._edges[k], X[:, c])
            worst = max(
                worst, population_stability_index(self._reference[k], live)
            )
        return worst


class AdaptiveLFOOnline(LFOOnline):
    """LFOOnline with PSI-triggered early retraining.

    Args:
        drift_threshold: PSI above which the current (partial) window is
            labelled and trained on immediately.
        check_interval: how often (in requests) the live PSI is evaluated.
        min_retrain_size: do not retrain on fewer buffered requests than
            this (labels/models from slivers are noise).
        (remaining arguments as in :class:`LFOOnline`)
    """

    name = "LFO-adaptive"

    def __init__(
        self,
        cache_size: int,
        window: int = 10_000,
        drift_threshold: float = 0.25,
        check_interval: int = 1_000,
        min_retrain_size: int = 1_000,
        **kwargs: Any,
    ) -> None:
        super().__init__(cache_size, window=window, **kwargs)
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        self.drift_threshold = drift_threshold
        self.check_interval = check_interval
        self.min_retrain_size = min_retrain_size
        self.n_drift_retrains = 0
        self._detector: DriftDetector | None = None

    def record_for_training(
        self, request: Request, features: np.ndarray
    ) -> None:
        """Buffer the request, then check the drift monitor periodically —
        in the hook every serving path calls after a decision."""
        super().record_for_training(request, features)
        buffered = len(self.trainer.requests)
        if (
            self._detector is not None
            and buffered >= self.min_retrain_size
            and buffered % self.check_interval == 0
        ):
            live = np.vstack(self.trainer.features[-self.check_interval:])
            if self._detector.score(live) > self.drift_threshold:
                self.n_drift_retrains += 1
                self._retrain()

    def _retrain(self) -> None:
        if self.trainer.features:
            # Reference distribution = the window we are about to train on,
            # skipping the free-bytes column (index 2): it reflects the
            # cache's own behaviour rather than the workload.
            features = np.vstack(self.trainer.features)
            monitored = [
                i for i in range(features.shape[1]) if i != 2
            ]
            self._detector = DriftDetector(features=monitored).fit(features)
        super()._retrain()

"""Offline experiment pipeline: featurise → label → train → evaluate.

These helpers drive the paper's accuracy experiments (Figures 5a–5c and
8): they featurise a trace with live free-bytes observations from a
reference cache, compute OPT labels, train an :class:`LFOModel` on one
window and measure prediction error against OPT on the next — the paper's
train-on-``W[t]``, evaluate-on-``W[t+1]`` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cache import LRUCache
from ..features import Dataset, FeatureTracker, feature_names
from ..gbdt import GBDTParams
from ..opt import solve_segmented
from ..sim import record_free_bytes
from ..trace import Trace
from .lfo import LFOModel, error_rates
from .online import OptLabelConfig

__all__ = ["WindowData", "prepare_windows", "AccuracyReport", "train_and_evaluate"]


@dataclass
class WindowData:
    """Featurised + labelled data for a train/eval window pair."""

    train: Dataset
    test: Dataset


def prepare_windows(
    trace: Trace,
    cache_size: int,
    train_size: int,
    test_size: int,
    label_config: OptLabelConfig | None = None,
    n_gaps: int = 50,
    start: int = 0,
) -> WindowData:
    """Featurise and label consecutive train/eval windows of a trace.

    Free-bytes observations come from simulating an LRU cache over the
    whole span (the reference deployment whose telemetry a cold-started
    LFO would see); the feature tracker runs continuously across both
    windows so the eval window sees warm gap histories, as in the online
    system.  Labels default to segmented OPT, not the training loop's
    greedy default: the eval window is Figure 5's ground truth.
    """
    label_config = label_config or OptLabelConfig(mode="segmented")
    end = start + train_size + test_size
    if end > len(trace):
        raise ValueError(
            f"trace too short: need {end} requests, have {len(trace)}"
        )
    span = trace[start:end]
    free = record_free_bytes(span, LRUCache(cache_size))

    tracker = FeatureTracker(n_gaps=n_gaps)
    names = feature_names(n_gaps)
    X = tracker.features_batch(
        span.objs.tolist(), span.times, span.sizes, span.costs,
        free.astype(np.float64), update=True,
    )

    train_trace = span[:train_size]
    test_trace = span[train_size:]
    y_train = label_config.compute(train_trace, cache_size)
    y_test = label_config.compute(test_trace, cache_size)

    return WindowData(
        train=Dataset(X[:train_size], y_train.astype(np.float64), names),
        test=Dataset(X[train_size:], y_test.astype(np.float64), names),
    )


@dataclass
class AccuracyReport:
    """Prediction-quality metrics of a trained model vs OPT.

    Attributes:
        prediction_error: fraction of eval requests where LFO and OPT
            disagree (the paper reports >93% agreement, i.e. <7% error).
        false_positive_rate: P(LFO admits | OPT does not).
        false_negative_rate: P(LFO rejects | OPT admits).
        accuracy: 1 - prediction_error.
        model: the trained model.
        likelihoods: predicted admission likelihoods on the eval window.
        labels: OPT's decisions on the eval window.
    """

    prediction_error: float
    false_positive_rate: float
    false_negative_rate: float
    accuracy: float
    model: LFOModel
    likelihoods: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def rates_at_cutoff(self, cutoff: float) -> tuple[float, float, float]:
        """(error, FP rate, FN rate) if the cutoff were ``cutoff``."""
        return error_rates(self.likelihoods, self.labels, cutoff)


def train_and_evaluate(
    windows: WindowData,
    params: GBDTParams | None = None,
    cutoff: float = 0.5,
    train_subset: np.ndarray | None = None,
) -> AccuracyReport:
    """Train on the train window, measure prediction error on the eval one.

    Args:
        windows: output of :func:`prepare_windows`.
        params: learner hyperparameters.
        cutoff: admission threshold used for the error rates.
        train_subset: optional row indices to restrict training (used by
            the training-set-size and seed-robustness experiments).
    """
    train = windows.train if train_subset is None else windows.train.subset(
        train_subset
    )
    model = LFOModel.train(train, params=params, cutoff=cutoff)
    likelihoods = model.likelihood(windows.test.X)
    labels = windows.test.y
    error, fp, fn = error_rates(likelihoods, labels, cutoff)
    return AccuracyReport(
        prediction_error=error,
        false_positive_rate=fp,
        false_negative_rate=fn,
        accuracy=1.0 - error,
        model=model,
        likelihoods=likelihoods,
        labels=labels,
    )

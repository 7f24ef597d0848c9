"""Inverse-reinforcement-learning extension (paper §4, future work).

The related-work section suggests that "our reduction may also enable the
design of better RL caching systems using techniques from inverse
reinforcement learning that learn optimal rewards from OPT [1, 57, 62]".
This module implements the simplest useful instantiation of that idea:

* treat OPT's per-request admit/bypass choices as expert demonstrations;
* learn a *linear reward function* over LFO's online features with a
  max-margin structured perceptron (Ratliff et al.'s max-margin planning,
  reduced to the two-action cache-admission MDP);
* act greedily against the learned reward: admit when the reward of
  admitting beats bypassing, evict the resident object with the lowest
  admission reward.

Because the reward is linear, this model is strictly weaker than the
boosted trees LFO uses — which is exactly the comparison the extension
benchmark draws: the reduction to supervised learning is what matters, and
given the reduction, nonlinear learners win.

:class:`IRLCache` is an :class:`~repro.core.LFOCache` ranked by reward;
:class:`IRLOnline` retrains on a :class:`~repro.core.WindowTrainer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..trace import Request, Trace
from .lfo import LFOCache
from .online import OptLabelConfig
from .trainer import WindowTrainer

__all__ = ["LinearRewardIRL", "IRLCache", "IRLOnline"]


@dataclass
class LinearRewardIRL:
    """Max-margin linear reward learned from OPT demonstrations.

    The reward of admitting in state ``x`` is ``w . x_std + b``; the reward
    of bypassing is fixed at 0.  Training enforces a margin: expert-admitted
    states must score above +margin, expert-bypassed states below -margin.

    Attributes:
        epochs: perceptron passes over the demonstrations.
        margin: hinge margin.
        learning_rate: perceptron step size.
        l2: weight decay applied once per epoch.
    """

    epochs: int = 5
    margin: float = 1.0
    learning_rate: float = 0.1
    l2: float = 1e-4
    seed: int = 0
    weights: np.ndarray | None = None
    bias: float = 0.0
    _mean: np.ndarray | None = field(default=None, repr=False)
    _std: np.ndarray | None = field(default=None, repr=False)
    _low: np.ndarray | None = field(default=None, repr=False)
    _high: np.ndarray | None = field(default=None, repr=False)

    def _standardise(self, X: np.ndarray) -> np.ndarray:
        # Clip to the training range first: a linear model has no mechanism
        # to saturate, so out-of-range sentinels (e.g. the MISSING_GAP
        # value on a cold object) would otherwise dominate every weight.
        Z = np.clip(X, self._low, self._high)
        return (Z - self._mean) / self._std

    def fit(self, X: np.ndarray, admitted: np.ndarray) -> "LinearRewardIRL":
        """Learn reward weights from (features, OPT admit decision) pairs."""
        X = np.asarray(X, dtype=np.float64)
        y = np.where(np.asarray(admitted, dtype=bool), 1.0, -1.0)
        if len(X) != len(y):
            raise ValueError("X and admitted length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty demonstration set")
        # Standardise features: sizes and gaps span many orders of magnitude.
        self._low = X.min(axis=0)
        self._high = X.max(axis=0)
        self._mean = X.mean(axis=0)
        self._std = X.std(axis=0)
        self._std[self._std == 0] = 1.0
        Z = self._standardise(X)

        rng = np.random.default_rng(self.seed)
        w = np.zeros(X.shape[1])
        b = 0.0
        n = len(Z)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for i in order:
                score = Z[i] @ w + b
                if y[i] * score < self.margin:
                    w += self.learning_rate * y[i] * Z[i]
                    b += self.learning_rate * y[i]
            w *= 1.0 - self.l2
        self.weights = w
        self.bias = b
        return self

    def reward(self, X: np.ndarray) -> np.ndarray:
        """Learned admission reward per feature row."""
        if self.weights is None:
            raise RuntimeError("model is not fitted")
        Z = self._standardise(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        return Z @ self.weights + self.bias

    def admit(self, features: np.ndarray) -> bool:
        """Greedy action: admit iff the admission reward beats bypass (0)."""
        return bool(self.reward(features)[0] > 0.0)

    def agreement_with(self, X: np.ndarray, admitted: np.ndarray) -> float:
        """Fraction of demonstrations the greedy policy matches."""
        predictions = self.reward(X) > 0.0
        return float((predictions == np.asarray(admitted, dtype=bool)).mean())


class IRLCache(LFOCache):
    """Cache policy acting greedily on a learned linear reward: an
    :class:`~repro.core.LFOCache` scoring (and re-scoring) by reward,
    admitting when it beats bypassing (> 0).  Rewards are not
    likelihoods: they stay out of ``lfo.admission_score``."""

    name = "IRL"

    def __init__(
        self, cache_size: int, model: LinearRewardIRL | None = None,
        n_gaps: int = 50,
    ) -> None:
        super().__init__(cache_size, model, n_gaps)

    @property
    def supports_batched_scoring(self) -> bool:
        """Never: the decision engine scores with a compiled GBDT."""
        return False

    def on_request(self, request: Request) -> bool:
        """Process one request under the learned-reward policy (the
        request recorded as :meth:`LFOCache.on_request` records it)."""
        features = self._tracker.advance(request, self.free_bytes)
        score = 0.0 if self.model is None else self._score_rows(features)[0]
        return self.apply_scored(
            request.time, request.obj, request.size, request.cost,
            features, score,
        )

    def _score_rows(self, matrix: np.ndarray) -> list[float]:
        return self.model.reward(matrix).tolist()

    def _should_admit(self, score: float) -> bool:
        return self.model is None or score > 0.0

    def _bind_score_instrument(self, registry) -> None:
        self._obs_registry = registry  # no admission-score histogram


@dataclass(frozen=True)
class IRLFitJob:
    """The IRL training job: label one closed window with OPT, fit a copy
    of ``template`` (None below ``min_positive_labels`` admissions)."""

    cache_size: int
    template: LinearRewardIRL
    label_config: OptLabelConfig
    min_positive_labels: int

    def __call__(
        self, requests: list[Request], features: np.ndarray, name: str,
        deployed: LinearRewardIRL | None,
    ) -> LinearRewardIRL | None:
        labels = self.label_config.compute(
            Trace(requests, name=name), self.cache_size
        )
        if labels.sum() < self.min_positive_labels:
            return None
        return replace(self.template).fit(features, labels)


class IRLOnline(IRLCache):
    """Windowed online loop for the IRL policy: an inline
    :class:`~repro.core.WindowTrainer` runs an :class:`IRLFitJob` on every
    closed window and installs right after the window's last request."""

    name = "IRL-online"

    def __init__(
        self,
        cache_size: int,
        window: int = 10_000,
        irl_params: LinearRewardIRL | None = None,
        label_config: OptLabelConfig | None = None,
        n_gaps: int = 50,
        min_positive_labels: int = 10,
    ) -> None:
        super().__init__(cache_size, model=None, n_gaps=n_gaps)
        self.trainer = WindowTrainer(
            window,
            IRLFitJob(
                cache_size,
                irl_params or LinearRewardIRL(),
                label_config or OptLabelConfig(),
                min_positive_labels,
            ),
            self.set_model,
        )

    @property
    def n_retrains(self) -> int:
        """Windows whose reward was installed."""
        return self.trainer.n_retrains

    def on_request(self, request: Request) -> bool:
        """Poll, decide, record: :meth:`repro.core.LFOOnline.on_request`."""
        self.trainer.poll()
        hit = super().on_request(request)
        self.trainer.record((request,), self.last_features[None])
        return hit

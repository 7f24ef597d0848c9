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
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..cache import CachePolicy
from ..features import Dataset, FeatureTracker, feature_names
from ..trace import Request, Trace
from .online import OptLabelConfig

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


class IRLCache(CachePolicy):
    """Cache policy acting greedily on a learned linear reward."""

    name = "IRL"

    def __init__(
        self,
        cache_size: int,
        model: LinearRewardIRL | None = None,
        n_gaps: int = 50,
    ) -> None:
        super().__init__(cache_size)
        self.model = model
        self._tracker = FeatureTracker(n_gaps=n_gaps)
        self._reward: dict[int, float] = {}
        self._heap: list[tuple[float, int, int]] = []
        self._stamp: dict[int, int] = {}
        self._counter = 0
        self._lru: OrderedDict[int, None] = OrderedDict()
        self.last_features: np.ndarray | None = None

    @property
    def tracker(self) -> FeatureTracker:
        """Shared online feature state."""
        return self._tracker

    def _rank(self, obj: int, reward: float) -> None:
        self._reward[obj] = reward
        self._counter += 1
        self._stamp[obj] = self._counter
        heapq.heappush(self._heap, (reward, self._counter, obj))

    def on_request(self, request: Request) -> bool:
        """Process one request under the learned-reward policy."""
        features = self._tracker.features(request, self.free_bytes)
        self.last_features = features
        reward = (
            float(self.model.reward(features)[0])
            if self.model is not None
            else 0.0
        )
        hit = request.obj in self._entries
        if hit:
            self._rank(request.obj, reward)
            self._lru.move_to_end(request.obj)
        else:
            self._on_miss_observed(request)
        if not hit and request.size <= self.cache_size and (
            self.model is None or reward > 0.0
        ):
            while self.used_bytes + request.size > self.cache_size:
                victim = self._select_victim(request)
                if victim is None:
                    break
                self._remove(victim)
            if self.used_bytes + request.size <= self.cache_size:
                self._insert(request)
                self._rank(request.obj, reward)
        self._tracker.update(request.obj, request.time, request.cost)
        return hit

    def _insert(self, request: Request) -> None:
        super()._insert(request)
        self._lru[request.obj] = None

    def _remove(self, obj: int) -> None:
        super()._remove(obj)
        self._reward.pop(obj, None)
        self._stamp.pop(obj, None)
        self._lru.pop(obj, None)

    def _select_victim(self, incoming: Request) -> int | None:
        if self.model is None:
            return next(iter(self._lru), None)
        while self._heap:
            _, stamp, obj = self._heap[0]
            if obj in self._entries and self._stamp.get(obj) == stamp:
                return obj
            heapq.heappop(self._heap)
        return None

    def _reset_policy_state(self) -> None:
        self._reward.clear()
        self._heap.clear()
        self._stamp.clear()
        self._lru.clear()
        self._counter = 0
        self.last_features = None


class IRLOnline(IRLCache):
    """Windowed online loop for the IRL policy (mirrors LFOOnline)."""

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
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._irl_template = irl_params or LinearRewardIRL()
        self.label_config = label_config or OptLabelConfig()
        self.min_positive_labels = min_positive_labels
        self.n_retrains = 0
        self._buffer_requests: list[Request] = []
        self._buffer_features: list[np.ndarray] = []

    def on_request(self, request: Request) -> bool:
        """Process one request, retraining at window boundaries."""
        hit = super().on_request(request)
        self._buffer_requests.append(request)
        self._buffer_features.append(self.last_features)
        if len(self._buffer_requests) >= self.window:
            self._retrain()
        return hit

    def _retrain(self) -> None:
        window_trace = Trace(self._buffer_requests)
        self._buffer_requests = []
        X = np.vstack(self._buffer_features)
        self._buffer_features = []
        labels = self.label_config.compute(window_trace, self.cache_size)
        if labels.sum() < self.min_positive_labels:
            return
        model = LinearRewardIRL(
            epochs=self._irl_template.epochs,
            margin=self._irl_template.margin,
            learning_rate=self._irl_template.learning_rate,
            l2=self._irl_template.l2,
            seed=self._irl_template.seed,
        ).fit(X, labels)
        self.model = model
        self.n_retrains += 1

"""Speculative batched scoring around a continuously retraining policy.

``simulate(batch_size=N)`` assumes a static model — speculated scores
would silently go stale across a model swap, which is why
``LFOOnline.supports_batched_scoring`` is false.  The serving loop wants
both: batched scoring throughput *and* continuous window retraining with
warm model handoff.  :class:`BatchScorer` cuts each batch at the
training-window edge (:attr:`repro.core.LFOOnline.window_remaining`) and,
for each part, polls, decides, then records it:

* **poll** — :meth:`repro.core.LFOOnline.poll_training` once per
  request of the part, in order, before the engine
  (:mod:`repro.core.engine`) decides any of them: a completed background
  model installs here, an overdue one is watchdog-cancelled — the part
  edge install rule of :meth:`repro.core.WindowTrainer.poll`, which
  :class:`repro.cluster.ClusterScorer` follows too.  The swapped-in
  model carries the predictor compiled at train time
  (``model.predictor``), so a handoff never compiles on the request
  path; a model that changed across a part's polls counts as one
  handoff;
* **record** — one :meth:`repro.core.LFOOnline.record_for_training`
  call with the part's requests and the live feature rows the engine
  filled, so a window closes (and its retrain runs) *between* engine
  runs, never under speculated scores.

The result is bit-identical to the scalar ``policy.on_request`` loop
whenever each model completes between two parts (always, with an inline
or simulated trainer): speculation changes how fast a decision was
computed, never what it was.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.engine import MAX_LOOKAHEAD, DecisionEngine
from ..obs import get_registry
from ..obs.slo import DECISION_LATENCY_BUCKETS
from ..trace import Request, Trace

if TYPE_CHECKING:
    from ..core.lfo import LFOModel
    from ..core.online import LFOOnline

__all__ = ["BatchScorer"]


class BatchScorer:
    """Score request batches against a live :class:`LFOOnline` policy.

    Synchronous and single-consumer by design: the serving loop calls
    :meth:`process` from one task/thread at a time.
    """

    def __init__(
        self, policy: "LFOOnline", max_batch: int = MAX_LOOKAHEAD
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.policy = policy
        self.max_batch = max_batch
        #: Warm handoffs observed: every time the serving path picks up a
        #: newly installed model (including the cold-start first install).
        self.n_handoffs = 0
        self._active_model: "LFOModel | None" = policy.model
        registry = get_registry()
        # The engine reads the clock around each decision it is given a
        # histogram for — a per-request cost a disabled registry skips.
        latency = None
        if registry.enabled:
            latency = registry.histogram(
                "serve.decision_latency_seconds", DECISION_LATENCY_BUCKETS
            )
        self._engine = DecisionEngine(policy, max_batch, latency=latency)

    def process(self, requests: Sequence[Request]) -> list[bool]:
        """Score and apply ``requests`` in order; returns per-request hits.

        Decisions are those of ``policy.on_request`` per request in
        sequence, under the part edge install rule (module docstring).
        """
        policy = self.policy
        columns = Trace(requests)  # materialises the four columns once
        hits: list[bool] = []
        start = 0
        while start < len(requests):
            end = min(start + policy.window_remaining, len(requests))
            part = slice(start, end)
            for _ in range(start, end):
                policy.poll_training()
            if policy.model is not self._active_model:
                self._active_model = policy.model
                self.n_handoffs += 1
            rows = np.empty((end - start, policy.tracker.n_features))
            hits += self._engine.run(
                columns.times[part], columns.objs[part],
                columns.sizes[part], columns.costs[part], rows=rows,
            )
            policy.record_for_training(requests[part], rows)
            start = end
        return hits

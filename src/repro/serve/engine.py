"""Speculative batched scoring around a continuously retraining policy.

``simulate(batch_size=N)`` assumes a static model — speculated scores
would silently go stale across a model swap, which is why
``LFOOnline.supports_batched_scoring`` is false.  The serving loop wants
both: batched scoring throughput *and* continuous window retraining with
warm model handoff.  :class:`BatchScorer` gets them by handing the
policy's serving hooks to the decision engine
(:mod:`repro.core.engine`, which owns the window protocol):

* **poll** — :meth:`repro.core.LFOOnline.poll_training` before each
  request is scored: a completed background model installs here, an
  overdue one is watchdog-cancelled (the policy's
  :class:`repro.core.WindowTrainer`).  The engine runs it exactly once
  per request and abandons a window the install lands in.  The
  swapped-in predictor was compiled at train time (``set_model``
  guarantees it), so a handoff costs one aborted lookahead, never a
  compile on the request path; every new model seen after a poll counts
  as one handoff;
* **cap** — :attr:`repro.core.LFOOnline.window_remaining`, so a
  training-window boundary (and the retrain it triggers) always falls
  *between* speculation windows;
* **tap** — :meth:`repro.core.LFOOnline.record_for_training` with the
  request (the scorer holds the batch; the engine only sees its four
  columns, built once per batch) and the live feature row its decision
  used.

The result is bit-identical to the scalar ``policy.on_request`` loop:
speculation changes how fast a decision was computed, never what it was.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

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
        self._engine = DecisionEngine(
            policy,
            max_batch,
            poll=self._poll,
            cap=lambda: policy.window_remaining,
            tap=lambda index, _hit, _score: policy.record_for_training(
                self._batch[index], policy.last_features
            ),
            latency=latency,
        )
        self._batch: Sequence[Request] = ()

    def process(self, requests: Sequence[Request]) -> list[bool]:
        """Score and apply ``requests`` in order; returns per-request hits.

        Decisions are bit-identical to calling ``policy.on_request`` for
        each request in sequence.
        """
        self._batch = requests
        columns = Trace(requests)  # materialises the four columns once
        return self._engine.run(
            columns.times, columns.objs, columns.sizes, columns.costs
        )

    def _poll(self) -> None:
        """Poll the trainer; count a model that went live as a handoff."""
        policy = self.policy
        policy.poll_training()
        if policy.model is not self._active_model:
            self._active_model = policy.model
            self.n_handoffs += 1

"""Serving-loop integration: a cluster-backed drop-in for ``BatchScorer``.

:class:`ClusterScorer` gives the always-on serving harness
(:class:`repro.serve.ServingLoop`) a sharded data plane: request batches
route through a :class:`~repro.cluster.CacheCluster` instead of a local
cache, while the control plane — one bare
:class:`repro.core.WindowTrainer` in the router process, no cache and no
feature tracker behind it — keeps the paper's Figure-2 loop intact:

1. shards serve each routed batch and fill, through
   ``CacheCluster.process(requests, rows)``, the *live* feature rows the
   requests were scored with;
2. the scorer polls the trainer once per request and feeds those rows,
   in request order and in blocks cut at the window edge, into its
   window buffer (``record`` — as ``BatchScorer`` does through its
   policy), so training sees exactly what the shards served;
3. when a window closes, the trainer installs the fresh model by
   publishing it to the cluster (its ``install`` is
   :meth:`CacheCluster.publish`) — and every shard warm-hands-off to the
   new generation at its next batch, which carries the model.

The scorer exposes the two members the serving loop consumes —
``process(requests) -> hits`` and ``n_handoffs``; the loop counts the
requests, bytes and handoffs.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..features.tracker import feature_names
from ..obs import get_registry
from ..obs.slo import DECISION_LATENCY_BUCKETS
from ..trace import Request
from .cluster import CacheCluster

if TYPE_CHECKING:  # annotation only; avoids repro.core import at runtime.
    from ..core.trainer import WindowTrainer

__all__ = ["ClusterScorer"]


class ClusterScorer:
    """Score request batches through a shard cluster; train in-router.

    Args:
        trainer: the router-process
            :class:`~repro.core.WindowTrainer`.  Build its job from the
            cluster — ``LabelFitJob(cluster.shard_size, ...)`` — so the
            OPT oracle labels against the capacity each shard actually
            serves — and its ``install`` as :meth:`CacheCluster.publish`:
            nothing serves in the router, so every trained model goes
            live cluster-wide instead.
        cluster: a started-or-startable cluster.
    """

    def __init__(
        self, trainer: "WindowTrainer", cluster: CacheCluster
    ) -> None:
        self.trainer = trainer
        self.cluster = cluster
        self.n_handoffs = 0
        self._generation = cluster.generation
        #: One column per feature the shards' trackers emit.
        self._width = len(feature_names(cluster.n_gaps))
        self._latency_hist = get_registry().histogram(
            "serve.decision_latency_seconds", DECISION_LATENCY_BUCKETS
        )

    def process(self, requests: Sequence[Request]) -> list[bool]:
        """Route one batch through the cluster; per-request hits in order.

        The shards fill one feature row per request, so the trainer is
        fed in exactly the order the requests were served, one block per
        window the batch touches.
        """
        rows = np.empty((len(requests), self._width))
        began = perf_counter()
        hits = self.cluster.process(requests, rows)
        elapsed = perf_counter() - began
        trainer = self.trainer
        start = 0
        while start < len(requests):
            end = min(start + trainer.remaining, len(requests))
            for _ in range(start, end):
                trainer.poll()
            trainer.record(requests[start:end], rows[start:end])
            start = end
        generation = self.cluster.generation
        self.n_handoffs += generation - self._generation
        self._generation = generation
        if requests:
            self._latency_hist.observe_batch(
                np.full(len(requests), elapsed / len(requests))
            )
        return hits

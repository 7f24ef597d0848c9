"""Serving-loop integration: a cluster-backed drop-in for ``BatchScorer``.

:class:`ClusterScorer` gives the always-on serving harness
(:class:`repro.serve.ServingLoop`) a sharded data plane: request batches
route through a :class:`~repro.cluster.CacheCluster` instead of a local
cache, while the control plane — one bare
:class:`repro.core.WindowTrainer` in the router process, no cache and no
feature tracker behind it — keeps the paper's Figure-2 loop intact:

1. the scorer cuts each batch at the training-window edge, as
   ``BatchScorer`` does, and polls the trainer once per request of a
   part before dispatching it;
2. shards serve each routed part and fill, through
   ``CacheCluster.process(requests, rows)``, the *live* feature rows the
   requests were scored with, and the scorer records them in the
   trainer's window buffer (``record``), so training sees exactly what
   the shards served;
3. the ``record`` that closes a window has the trainer install the fresh
   model by publishing it to the cluster (its ``install`` is
   :meth:`CacheCluster.publish`) — and every shard warm-hands-off to the
   new generation at its next batch, which carries the model: with an
   inline trainer, the part right after the window's edge.

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

        One cluster round per part of the batch cut at the window edge;
        a part dispatched under a generation no earlier part was is one
        handoff, so a model counts once it serves.
        """
        trainer = self.trainer
        rows = np.empty((len(requests), self._width))
        hits: list[bool] = []
        start = 0
        while start < len(requests):
            end = min(start + trainer.remaining, len(requests))
            for _ in range(start, end):
                trainer.poll()
            generation = self.cluster.generation
            if generation != self._generation:
                self._generation = generation
                self.n_handoffs += 1
            began = perf_counter()
            hits += self.cluster.process(requests[start:end], rows[start:end])
            self._latency_hist.observe_batch(
                np.full(end - start, (perf_counter() - began) / (end - start))
            )
            trainer.record(requests[start:end], rows[start:end])
            start = end
        return hits

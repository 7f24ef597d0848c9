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
2. the scorer feeds those rows, in request order, into the trainer's
   window buffer (``poll`` + ``record`` — the same two steps
   ``BatchScorer`` drives through its policy), so training sees exactly
   what the shards served;
3. when a window closes and a fresh model installs, the trainer's
   ``publish_hook`` (installed by this class when unset) writes it into
   the shared slab — and every shard warm-hands-off to the new
   generation at its next batch boundary.

The scorer exposes the two members the serving loop consumes —
``process(requests) -> hits`` and ``n_handoffs``; the loop counts the
requests, bytes and handoffs.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Sequence

import numpy as np

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
            cluster — ``LabelFitJob(cluster.shard_size,
            n_gaps=cluster.n_gaps, ...)`` — so the OPT oracle labels
            against the capacity each shard actually serves, over the
            columns the shards ship.  Nothing serves in the router, so
            its ``install`` has nothing to swap; when its
            ``publish_hook`` is unset, :meth:`CacheCluster.publish` is
            installed — every trained model then goes live cluster-wide.
        cluster: a started-or-startable cluster.
    """

    def __init__(
        self, trainer: "WindowTrainer", cluster: CacheCluster
    ) -> None:
        self.trainer = trainer
        self.cluster = cluster
        if trainer.publish_hook is None:
            trainer.publish_hook = cluster.publish
        self.n_handoffs = 0
        self._generation = cluster.generation
        self._latency_hist = get_registry().histogram(
            "serve.decision_latency_seconds", DECISION_LATENCY_BUCKETS
        )

    def process(self, requests: Sequence[Request]) -> list[bool]:
        """Route one batch through the cluster; per-request hits in order.

        The shards fill one feature row per request, so the trainer is
        fed in exactly the order the requests were served.
        """
        # Size, cost and free bytes, then the gaps (``feature_names``).
        rows = np.empty((len(requests), 3 + self.cluster.n_gaps))
        began = perf_counter()
        hits = self.cluster.process(requests, rows)
        elapsed = perf_counter() - began
        trainer = self.trainer
        for request, features in zip(requests, rows):
            trainer.poll()
            if trainer.record(request, features):
                trainer.close_window()
        generation = self.cluster.generation
        self.n_handoffs += generation - self._generation
        self._generation = generation
        if requests:
            self._latency_hist.observe_batch(
                np.full(len(requests), elapsed / len(requests))
            )
        return hits

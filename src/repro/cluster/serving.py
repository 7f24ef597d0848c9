"""Serving-loop integration: a cluster-backed drop-in for ``BatchScorer``.

:class:`ClusterScorer` gives the always-on serving harness
(:class:`repro.serve.ServingLoop`) a sharded data plane: request batches
route through a :class:`~repro.cluster.CacheCluster` instead of a local
cache, while the control plane — one bare
:class:`repro.core.WindowTrainer` in the router process, no cache and no
feature tracker behind it — keeps the paper's Figure-2 loop intact:

1. shards serve each routed batch and reply with hits and the *live*
   feature rows the requests were scored with; the cluster pairs them
   with the requests it routed into observed-access records;
2. the scorer replays those records, in global request order, into the
   trainer's window buffer (``poll`` + ``record`` — the same two steps
   ``BatchScorer`` drives through its policy), so training sees exactly
   what the shards served;
3. when a window closes and a fresh model installs, the trainer's
   ``publish_hook`` (installed by this class when unset) writes it into
   the shared slab — and every shard warm-hands-off to the new
   generation at its next batch boundary.

The scorer exposes the two members the serving loop consumes —
``process(requests) -> hits`` and ``n_handoffs`` — plus
``folds_bytes = True``, which tells the loop the byte counters already
arrived through the cluster's telemetry fold (folding them again would
double-count window BHR).
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..obs import get_registry
from ..sim.batched import DECISION_LATENCY_BUCKETS
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
        cluster: a started-or-startable cluster built with
            ``ship_features=True`` (training needs the live rows).  The
            scorer takes over its ``on_access`` tap.
    """

    #: The serving loop reads this: byte counters already arrive through
    #: the cluster's telemetry fold, so the loop must not count them too.
    folds_bytes = True

    def __init__(
        self, trainer: "WindowTrainer", cluster: CacheCluster
    ) -> None:
        if not cluster.ship_features:
            raise ValueError(
                "ClusterScorer needs a cluster built with "
                "ship_features=True: training must see the live feature "
                "rows the shards scored with"
            )
        self.trainer = trainer
        self.cluster = cluster
        cluster.on_access = self._take_accesses
        if trainer.publish_hook is None:
            trainer.publish_hook = cluster.publish
        self.n_handoffs = 0
        self._generation = cluster.generation
        self._accesses: list = []
        registry = get_registry()
        self._latency_hist = registry.histogram(
            "serve.decision_latency_seconds", DECISION_LATENCY_BUCKETS
        )
        self._handoff_counter = registry.counter("serve.model_handoffs")

    def _take_accesses(self, items: list) -> None:
        self._accesses.extend(items)

    def process(self, requests: Sequence[Request]) -> list[bool]:
        """Route one batch through the cluster; per-request hits in order.

        All of the batch's access records arrive before
        :meth:`CacheCluster.process` returns (one ``on_access`` call per
        shard), so replaying them sorted by original index feeds the
        trainer in exactly the order the requests were served.
        """
        self._accesses = []
        began = perf_counter()
        hits = self.cluster.process(requests)
        elapsed = perf_counter() - began
        trainer = self.trainer
        for _index, request, _hit, features in sorted(
            self._accesses, key=lambda record: record[0]
        ):
            trainer.poll()
            if features is not None and trainer.record(request, features):
                trainer.close_window()
        self._accesses = []
        generation = self.cluster.generation
        if generation != self._generation:
            fresh = generation - self._generation
            self._generation = generation
            self.n_handoffs += fresh
            self._handoff_counter.inc(fresh)
        if requests:
            self._latency_hist.observe_batch(
                np.full(len(requests), elapsed / len(requests))
            )
        return hits

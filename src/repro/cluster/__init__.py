"""Sharded multi-process cache cluster: one trainer, N shard caches.

Scaling the single-process LFO loop out over cores (the deployment shape
a CDN node actually runs) needs two mechanisms, and this package is
exactly those two plus the router that composes them:

* **seeded hash routing** (:class:`HashRing`, ``ring.py``) —
  ``splitmix64(id + key seed) % N`` maps every object id to one shard,
  deterministically across processes, runs and shard restarts;
* **a columnar wire** (``wire.py``) — a routed bucket goes down a
  shard's pipe as fixed-width request records and comes back as one
  reply per batch (hit bytes, cumulative stats, telemetry deltas and,
  when the caller passes ``rows``, one feature matrix); no request
  object is pickled in either direction.

:class:`CacheCluster` (``cluster.py``) wires them together — spawn-safe
shard workers (``worker.py``), fan-out/collect batch dispatch, model
publication (a trained model's compiled bytes, ~59 KB at library
defaults, ride each shard's next batch message; the shard rebuilds the
predictor with bit-identical scores and swaps it in before scoring), and
folding the shards' own telemetry (``cluster.*``, the admission-score
histogram) into the registry.  It is a backend:
``CacheCluster.process(requests[, rows])`` decides and fills rows the
way ``DecisionEngine.run`` does, and the driver counts requests, hits
and bytes.  :class:`ClusterScorer` (``serving.py``) drops the cluster
into the always-on serving loop with a bare
:class:`repro.core.WindowTrainer` in the router publishing to the shards
(``lfo serve --shards N``).
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "cluster": ("CacheCluster",),
    "ring": ("HashRing",),
    "serving": ("ClusterScorer",),
    "worker": ("ShardConfig", "shard_main"),
})

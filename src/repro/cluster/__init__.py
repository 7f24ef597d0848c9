"""Sharded multi-process cache cluster with a shared-memory model slab.

Scaling the single-process LFO loop out over cores (the deployment shape
a CDN node actually runs) needs three mechanisms, and this package is
exactly those three plus the router that composes them:

* **consistent-hash routing** (:class:`HashRing`, ``ring.py``) — a
  seeded ring with configurable virtual nodes maps every object id to
  one shard, deterministically across processes and runs, with ~1/(N+1)
  keys remapped when a shard is added;
* **the model slab** (:class:`ModelSlab` / :class:`SlabReader`,
  ``slab.py``) — one trainer serializes each compiled model's
  contiguous node array into ``multiprocessing.shared_memory`` and
  flips a generation counter; every shard attaches zero-copy
  (``np.frombuffer``) with bit-identical scores.  Publish is
  write-new-then-flip, never in-place: readers either see the old
  generation or the complete new one;
* **a columnar wire** (``wire.py``) — a routed bucket goes down a
  shard's pipe as fixed-width request records and comes back as one
  reply per batch (hit bytes, cumulative stats, telemetry deltas and,
  when the caller passes ``rows``, one feature matrix); no request
  object is pickled in either direction.

:class:`CacheCluster` (``cluster.py``) wires them together — spawn-safe
shard workers (``worker.py``), fan-out/collect batch dispatch, and
folding the shards' own telemetry (``cluster.*``, the admission-score
histogram) into the registry.  It is a backend:
``CacheCluster.process(requests[, rows])`` decides and fills rows the
way ``DecisionEngine.run`` does, and the driver counts requests, hits
and bytes.  :class:`ClusterScorer` (``serving.py``) drops the cluster
into the always-on serving loop with a bare
:class:`repro.core.WindowTrainer` in the router publishing into the slab
(``lfo serve --shards N``).
"""

from .cluster import CacheCluster
from .ring import HashRing
from .serving import ClusterScorer
from .slab import ModelSlab, SlabModel, SlabReader
from .worker import ShardConfig, shard_main

__all__ = [
    "CacheCluster",
    "ClusterScorer",
    "HashRing",
    "ModelSlab",
    "ShardConfig",
    "SlabModel",
    "SlabReader",
    "shard_main",
]

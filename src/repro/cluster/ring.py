"""Seeded hash partition: the sharded cache cluster's key→shard rule.

The router's one job is to turn an object id into a shard id the same way
on every host, every run, and every restart — cache state lives in the
shards, so an unstable mapping is a cold cache, and a shard restarted at
its index must own the same objects.  An object id goes to
``splitmix64(id + key_seed) % n_shards``, where ``key_seed`` comes from
``blake2b`` over the seed; no process-global hash randomisation
(``PYTHONHASHSEED``) or RNG state is involved, so the mapping is a pure
function of ``(seed, n_shards)``.

The trade: growing ``n_shards`` would remap most keys (a consistent-hash
ring moves about ``1 / (n_shards + 1)`` of them), and nothing grows
``n_shards`` — a cluster keeps its shard count for its lifetime.  In
return the split is as even as the mix: on 20 000 consecutive ids the
busiest shard stays within a few percent of uniform.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from ..trace import Request

__all__ = ["HashRing"]

#: splitmix64 constants (Steele et al.; the JDK SplittableRandom mix).
_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(values: np.ndarray, seed_term: np.uint64) -> np.ndarray:
    """Seeded 64-bit finaliser: uniform, invertible, and branch-free.

    Operates in wrapping uint64 arithmetic (numpy unsigned overflow is
    defined), so the mapping is a pure function of ``(values, seed)``.
    """
    z = values + seed_term
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class HashRing:
    """A seeded hash partition of object ids over ``n_shards`` shards.

    Args:
        n_shards: number of shards, at least 1.
        seed: partition seed; distinct seeds give statistically
            independent mappings.
    """

    def __init__(self, n_shards: int, seed: int = 0) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self.n_shards = int(n_shards)
        self.seed = int(seed)
        digest = hashlib.blake2b(f"{self.seed}:keys".encode(), digest_size=8)
        key_mix = int.from_bytes(digest.digest(), "little")
        # Wrapping 64-bit multiply in Python ints: numpy *scalar* uint64
        # products warn on overflow (array ops wrap silently).
        self._key_seed = np.uint64((key_mix * int(_PHI)) & 0xFFFFFFFFFFFFFFFF)

    def shard_of_batch(self, keys: "Sequence[int] | np.ndarray") -> np.ndarray:
        """The shard owning each object id in ``keys``."""
        mixed = _splitmix64(
            np.asarray(keys, dtype=np.int64).astype(np.uint64),
            self._key_seed,
        )
        return (mixed % np.uint64(self.n_shards)).astype(np.int64)

    def partition(
        self, requests: Sequence[Request]
    ) -> list[list[tuple[int, Request]]]:
        """Split ``requests`` across shards, keeping per-shard order.

        Returns one list per shard of ``(original_index, request)`` pairs
        — the index is what lets the router re-interleave per-shard
        results back into the caller's request order.
        """
        buckets: list[list[tuple[int, Request]]] = [
            [] for _ in range(self.n_shards)
        ]
        shards = self.shard_of_batch([r.obj for r in requests]).tolist()
        for i, (request, shard) in enumerate(zip(requests, shards)):
            buckets[shard].append((i, request))
        return buckets

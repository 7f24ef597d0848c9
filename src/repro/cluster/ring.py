"""Seeded consistent-hash routing for the sharded cache cluster.

The router's one job is to turn an object id into a shard id the same way
on every host, every run, and every restart — cache state lives in the
shards, so an unstable mapping is a cold cache.  Two properties drive the
design:

* **determinism** — ring points come from ``blake2b`` over
  ``(seed, shard, vnode)`` and object ids are mixed with a seeded
  splitmix64 finaliser; no process-global hash randomisation
  (``PYTHONHASHSEED``) or RNG state is involved, so the same
  ``(seed, n_shards, vnodes)`` triple always yields the same mapping;
* **minimal disruption** — growing ``n_shards`` → ``n_shards + 1`` only
  inserts the new shard's vnodes between existing ring points, so only
  keys whose successor point became one of the new points move.  The
  expected remapped fraction is ``1 / (n_shards + 1)`` (the test gate
  allows ``2 / n_shards`` for sampling noise) versus the near-total
  reshuffle of modulo hashing.

Lookups are a binary search over the sorted point array —
``shard_of_batch`` vectorises the mix + ``np.searchsorted`` so routing a
whole request batch costs microseconds, not a Python loop.
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
    """A seeded consistent-hash ring with configurable virtual nodes.

    Args:
        n_shards: number of shards (ring owners), at least 1.
        vnodes: virtual nodes per shard.  More vnodes flatten the load
            imbalance between shards (stddev ~ ``1 / sqrt(vnodes)``) at
            the cost of a longer sorted point array; 64 keeps worst-case
            shard load within a few percent of uniform.
        seed: ring seed.  Folded into both the vnode point hashes and the
            key mix, so distinct seeds give statistically independent
            mappings.
    """

    def __init__(self, n_shards: int, vnodes: int = 64, seed: int = 0) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self.n_shards = int(n_shards)
        self.vnodes = int(vnodes)
        self.seed = int(seed)
        points = np.empty(n_shards * vnodes, dtype=np.uint64)
        owners = np.empty(n_shards * vnodes, dtype=np.int64)
        i = 0
        for shard in range(n_shards):
            for vnode in range(vnodes):
                digest = hashlib.blake2b(
                    f"{self.seed}:{shard}:{vnode}".encode(),
                    digest_size=8,
                ).digest()
                points[i] = int.from_bytes(digest, "little")
                owners[i] = shard
                i += 1
        order = np.argsort(points, kind="stable")
        self._points = points[order]
        self._owners = owners[order]
        # Key-mix seed term: derived from the ring seed through the same
        # hash family, so key placement is decorrelated from vnode
        # placement even at seed 0.
        key_mix = int.from_bytes(
            hashlib.blake2b(
                f"{self.seed}:keys".encode(), digest_size=8
            ).digest(),
            "little",
        )
        # Wrapping 64-bit multiply in Python ints: numpy *scalar* uint64
        # products warn on overflow (array ops wrap silently).
        self._key_seed = np.uint64((key_mix * int(_PHI)) & 0xFFFFFFFFFFFFFFFF)

    def shard_of(self, key: int) -> int:
        """The shard owning ``key`` (an object id)."""
        return int(self.shard_of_batch(np.asarray([key]))[0])

    def shard_of_batch(self, keys: "Sequence[int] | np.ndarray") -> np.ndarray:
        """Vectorised :meth:`shard_of` for an array of object ids."""
        mixed = _splitmix64(
            np.asarray(keys, dtype=np.int64).astype(np.uint64),
            self._key_seed,
        )
        # Successor point on the ring, wrapping past the top back to the
        # first point.
        idx = np.searchsorted(self._points, mixed, side="left")
        idx[idx == len(self._points)] = 0
        return self._owners[idx]

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
        if not requests:
            return buckets
        shards = self.shard_of_batch([r.obj for r in requests]).tolist()
        for i, (request, shard) in enumerate(zip(requests, shards)):
            buckets[shard].append((i, request))
        return buckets

    def spread(self, keys: "Sequence[int] | np.ndarray") -> np.ndarray:
        """Per-shard key counts for ``keys`` (a load-balance probe)."""
        shards = self.shard_of_batch(keys)
        return np.bincount(shards, minlength=self.n_shards)

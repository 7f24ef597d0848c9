"""The cache cluster: a consistent-hash router over shard processes.

:class:`CacheCluster` owns the three cluster-scale mechanisms and wires
them together:

* the **router** — a seeded :class:`~repro.cluster.HashRing` partitions
  every request batch by object id, preserving per-shard request order
  (an object's whole request stream lands on one shard, so each shard's
  cache behaves exactly like a single-process cache over its split);
* the **model slab** — one :class:`~repro.cluster.ModelSlab` publishes
  each trained model into shared memory; shards attach zero-copy at
  batch boundaries.  :meth:`publish` is shaped to be handed directly to
  :class:`repro.core.LFOOnline` as its ``publish_hook``;
* the **telemetry fold** — the counter/histogram deltas in every
  shard's reply are folded into the active registry
  (:func:`repro.obs.fold_deltas`), so the driver's
  :class:`~repro.obs.WindowedRegistry` windows carry every shard's
  admission scores and attaches, and score drift is detected
  cluster-wide unchanged.

Shard workers are ``spawn``-started processes (no inherited state; every
argument pickles), fed over pipes in routed batches: each bucket goes
down as fixed-width request records (:mod:`repro.cluster.wire`), and
each shard answers with one message (see
:func:`repro.cluster.shard_main`).  Dispatch fans out first and collects
second, so shards compute concurrently; a reply carries the shard's
per-request hit bytes (re-interleaved into the caller's order), the
feature rows when the caller asked for them, and cumulative stats
including a running score digest — the bit-identity witness the
cluster benchmark checks against a single-process replay of the same
split.  The cluster is a backend: it decides and counts its own
internals (``cluster.*``); the driver calling :meth:`process` counts
requests, hits and bytes, and rolls telemetry windows.

Shutdown (:meth:`close`, idempotent, also the context-manager exit and
the SIGINT path) mirrors the serve loop's drain-then-flush: every shard
is stopped and its last reply folded, workers are joined, and only then
are the shared-memory segments unlinked — exactly once.
"""

from __future__ import annotations

import multiprocessing
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..obs import get_registry
from ..obs.fold import fold_deltas
from ..trace import Request
from .ring import HashRing
from .slab import ModelSlab
from .wire import pack_requests
from .worker import ShardConfig, shard_main

if TYPE_CHECKING:  # annotation only; avoids repro.core import at runtime.
    from ..core.lfo import LFOModel

__all__ = ["CacheCluster"]

#: Histogram bounds for per-batch routing/dispatch round-trips: 10µs..10s.
_BATCH_SECONDS_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class CacheCluster:
    """N shard caches behind a consistent-hash router and a shared slab.

    Args:
        cache_size: total capacity in bytes, split evenly across shards.
        n_shards: worker process count.
        vnodes: virtual nodes per shard on the routing ring.
        seed: ring seed (key→shard mapping is a pure function of
            ``(seed, n_shards, vnodes)``).
        n_gaps: gap-feature count of each shard's tracker.
        eviction: shard cache eviction mode.
        slab_token: override the shared-memory token (testing).
    """

    def __init__(
        self,
        cache_size: int,
        n_shards: int,
        *,
        vnodes: int = 64,
        seed: int = 0,
        n_gaps: int = 50,
        eviction: str = "likelihood",
        slab_token: str | None = None,
    ) -> None:
        if cache_size < n_shards:
            raise ValueError("cache_size must be at least n_shards bytes")
        self.ring = HashRing(n_shards, vnodes=vnodes, seed=seed)
        self.slab = ModelSlab(slab_token)
        self.n_shards = n_shards
        self.shard_size = cache_size // n_shards
        self._config = dict(n_gaps=n_gaps, eviction=eviction)
        self._processes: list[multiprocessing.process.BaseProcess] = []
        self._conns: list = []
        self._stats: list[dict] = [{} for _ in range(n_shards)]
        self._started = False
        self._closed = False
        #: Set by the first exception between a batch's first send and
        #: its last receive; every later ``process`` raises it again
        #: without touching the pipes (live shards may hold unread
        #: replies to the batch the failure interrupted).
        self._failed: str | None = None

    @property
    def n_gaps(self) -> int:
        """Gap-feature count of every shard's tracker."""
        return int(self._config["n_gaps"])

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "CacheCluster":
        """Spawn the shard workers (idempotent)."""
        if self._started:
            return self
        if self._closed:
            raise RuntimeError("start on a closed CacheCluster")
        context = multiprocessing.get_context("spawn")
        for shard_id in range(self.n_shards):
            parent_conn, child_conn = context.Pipe(duplex=True)
            config = ShardConfig(
                shard_id=shard_id,
                slab_token=self.slab.token,
                cache_size=self.shard_size,
                **self._config,
            )
            process = context.Process(
                target=shard_main,
                args=(config, child_conn),
                name=f"lfo-shard-{shard_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._conns.append(parent_conn)
        self._started = True
        registry = get_registry()
        if registry.enabled:
            registry.gauge("cluster.shards").set(float(self.n_shards))
        return self

    def __enter__(self) -> "CacheCluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop shards, fold their last replies, unlink shared memory.

        Idempotent and exception-safe: whatever happens while stopping
        workers, the slab segments are unlinked exactly once — the
        serve loop's drain-then-flush discipline applied to process and
        shared-memory lifetime.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self._started:
                for conn in self._conns:
                    try:
                        conn.send(("stop",))
                    except (BrokenPipeError, OSError):
                        continue
                for shard_id, conn in enumerate(self._conns):
                    try:
                        stats, deltas, *_ = self._receive(
                            shard_id, "stopped"
                        )
                        self._absorb(shard_id, stats, deltas)
                    except RuntimeError:
                        # Shutdown is best-effort: a shard that died or
                        # errored must not keep the others from stopping
                        # or the slab from unlinking.
                        continue
                    finally:
                        conn.close()
                for process in self._processes:
                    process.join(timeout=10)
                    if process.is_alive():
                        process.terminate()
                        process.join(timeout=5)
        finally:
            self._started = False
            self.slab.close()

    # -- model publication ---------------------------------------------------

    @property
    def generation(self) -> int:
        """The currently published model generation (0 = none yet)."""
        return self.slab.generation

    def publish(self, model: "LFOModel") -> int:
        """Publish ``model`` to every shard; returns the new generation.

        Hand this method to :class:`repro.core.LFOOnline` as its
        ``publish_hook`` — each installed model then goes live
        cluster-wide at the shards' next batch boundary.
        """
        generation = self.slab.publish_model(model)
        registry = get_registry()
        if registry.enabled:
            registry.counter("cluster.publishes").inc()
            registry.gauge("cluster.generation").set(float(generation))
        return generation

    # -- request path --------------------------------------------------------

    def process(
        self, requests: Sequence[Request], rows: np.ndarray | None = None
    ) -> list[bool]:
        """Route one batch across the shards; per-request hits in order.

        ``rows``, when given, is an ``(n, n_features)`` float64 array the
        shards' live feature rows are written into, row ``i`` the one
        request ``i`` was scored with — what ``DecisionEngine.run(...,
        rows=)`` fills in-process.  Fan-out first (every shard's
        sub-batch is dispatched before any reply is awaited), then
        collect every reply — shards compute concurrently — and only then
        fold telemetry and fill ``hits`` / ``rows``, so an exception out
        of either leaves no reply unread.
        """
        if not self._started:
            raise RuntimeError("CacheCluster.process before start()")
        if self._failed is not None:
            raise RuntimeError(self._failed)
        if not requests:
            return []
        began = perf_counter()
        buckets = self.ring.partition(requests)
        with_rows = rows is not None
        dispatched: list[int] = []
        try:
            for shard_id, bucket in enumerate(buckets):
                if bucket:
                    try:
                        self._conns[shard_id].send(
                            ("batch", pack_requests(bucket), with_rows)
                        )
                    except OSError:
                        raise self._exited(shard_id) from None
                    dispatched.append(shard_id)
            replies = [
                self._receive(shard_id, "done") for shard_id in dispatched
            ]
        except BaseException as exc:
            self._failed = str(exc) or repr(exc)
            raise
        hits = np.zeros(len(requests), dtype=np.bool_)
        for shard_id, (stats, deltas, shard_hits, features) in zip(
            dispatched, replies
        ):
            self._absorb(shard_id, stats, deltas)
            indices = [index for index, _request in buckets[shard_id]]
            hits[indices] = np.frombuffer(shard_hits, dtype=np.bool_)
            if with_rows:
                rows[indices] = np.frombuffer(features, dtype="<f8").reshape(
                    len(indices), -1
                )
        registry = get_registry()
        if registry.enabled:
            registry.counter("cluster.requests").inc(len(requests))
            registry.counter("cluster.shard_batches").inc(len(dispatched))
            registry.histogram(
                "cluster.batch_seconds", _BATCH_SECONDS_BUCKETS
            ).observe(perf_counter() - began)
        return hits.tolist()

    def shard_stats(self) -> list[dict]:
        """The latest cumulative stats reported by each shard."""
        return [dict(stats) for stats in self._stats]

    def _exited(self, shard_id: int) -> RuntimeError:
        """The error for a shard whose pipe closed: its id and exit code."""
        process = self._processes[shard_id]
        process.join(timeout=5)  # the pipe closed, so exit is imminent
        return RuntimeError(
            f"shard {shard_id} exited (code {process.exitcode})"
        )

    def _receive(self, shard_id: int, final: str) -> tuple:
        """One shard's ``final`` reply: ``(stats, deltas, hits, features)``."""
        while True:
            try:
                message = self._conns[shard_id].recv()
            except (EOFError, OSError):
                raise self._exited(shard_id) from None
            kind = message[0]
            if kind == final:
                return message[2:]
            if kind == "error":
                raise RuntimeError(
                    f"shard {shard_id} failed: {message[2]}"
                )
            if kind == "done" and final == "stopped":
                # A batch reply whose collection was interrupted (SIGINT
                # mid-process): fold it and keep waiting for the
                # shutdown ack instead of failing the shutdown.
                self._absorb(shard_id, *message[2:4])
                continue
            raise RuntimeError(
                f"shard {shard_id}: unexpected {kind!r} "
                f"while waiting for {final!r}"
            )

    def _absorb(self, shard_id: int, stats: dict, deltas: list) -> None:
        """Keep a reply's cumulative stats and fold its telemetry deltas."""
        self._stats[shard_id] = stats
        fold_deltas(get_registry(), deltas)

"""The shard worker process: one ``LFOCache`` behind a request pipe.

Spawn-safe by construction: :func:`shard_main` is a module-level
function of a picklable :class:`ShardConfig`, so it works identically
under the ``spawn`` start method (no forked state, no inherited
registry — worker processes observe into plain local instruments and
ship *deltas*).

Per batch the worker:

1. polls the model slab's generation word (two shared-memory reads);
   on a new generation it attaches the published model zero-copy
   (:class:`repro.cluster.SlabReader`) and swaps it in with
   ``cache.set_model`` — the cross-process warm handoff;
2. views the batch's records as four columns
   (:func:`repro.cluster.wire.unpack_requests` — no ``Request`` is
   built) and decides them through the decision engine
   (:mod:`repro.core.engine` — the same lookahead windows as
   ``simulate(batch_size=N)`` and ``lfo serve``), which fills a hits and
   a scores column.  After the batch, the scores column goes into a
   running ``blake2b`` digest — what the cluster benchmark compares
   against an in-process engine over the same trace split: equal digests
   mean bit-identical scores — and into the admission-score histogram;
3. answers with one message: cumulative stats, the batch's hits as a
   byte string, the telemetry deltas the router folds into its windowed
   registry and — when the batch asked for them — the live feature rows
   as one float64 matrix.  Neither requests nor indices travel back:
   the router still holds the bucket it sent.  Hits and bytes are the
   driver's to count; the worker's stats and deltas cover its own work
   only (its request count and timings, attaches, scores).

Timing: the worker accumulates ``process_time`` (CPU seconds) and
``perf_counter`` (busy wall seconds) around the scoring loop and the
per-batch fold of its scores only — attach, record unpacking,
and pipe waits are excluded, so per-shard
service rates measure the work a dedicated core would do.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from hashlib import blake2b
from time import perf_counter, process_time
from typing import TYPE_CHECKING

import numpy as np

from ..core.engine import DecisionEngine
from ..core.lfo import ADMISSION_SCORE_BUCKETS, LFOCache
from ..obs.registry import Histogram
from .slab import SlabReader
from .wire import unpack_requests

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = ["ShardConfig", "shard_main"]


@dataclass(frozen=True)
class ShardConfig:
    """Everything a shard worker needs, snapshotted and picklable.

    Attributes:
        shard_id: this worker's index in the ring.
        slab_token: the :class:`repro.cluster.ModelSlab` token to attach.
        cache_size: this shard's capacity in bytes (the cluster splits
            the total evenly).
        n_gaps: gap-feature count of the shard's feature tracker.
        eviction: the shard cache's eviction mode.
    """

    shard_id: int
    slab_token: str
    cache_size: int
    n_gaps: int = 50
    eviction: str = "likelihood"


class _ShardState:
    """One worker's live state: cache, slab reader, counters, deltas."""

    def __init__(self, config: ShardConfig, conn: "Connection") -> None:
        self.config = config
        self.conn = conn
        self.cache = LFOCache(
            config.cache_size,
            model=None,
            n_gaps=config.n_gaps,
            eviction=config.eviction,
        )
        self.engine = DecisionEngine(self.cache)
        self.reader = SlabReader(config.slab_token)
        self.generation = 0
        self.attaches = 0
        self.requests = 0
        self.cpu_seconds = 0.0
        self.busy_seconds = 0.0
        self.digest = blake2b(digest_size=16)
        self.score_hist = Histogram(
            "lfo.admission_score", ADMISSION_SCORE_BUCKETS
        )
        self._hist_shipped = [0] * len(self.score_hist.bucket_counts)
        self._hist_shipped_count = 0
        self._hist_shipped_total = 0.0
        #: Telemetry records (:func:`repro.obs.fold.fold_deltas` shapes)
        #: since the last reply.
        self._deltas: list[tuple] = []

    def maybe_attach(self) -> None:
        """Batch-boundary model check: attach a new generation if flipped."""
        generation = self.reader.poll()
        if generation == self.generation:
            return
        attached = self.reader.attach()
        if attached is None:
            return
        self.generation, model = attached
        self.cache.set_model(model)
        self.attaches += 1
        self._deltas.append(("counter", "cluster.shard_attaches", 1))

    def process(self, data: bytes, with_rows: bool = False) -> None:
        """Score one routed batch of request records and reply."""
        times, objs, sizes, costs = unpack_requests(data)
        n = len(objs)
        self.maybe_attach()
        cache = self.cache
        scores = np.empty(n, dtype="<f8")
        rows = None
        if with_rows:
            rows = np.empty((n, cache.tracker.n_features), dtype="<f8")
        # Whether each decision was scored by a model: a model attaches
        # only between batches (above), so one read covers the batch.
        scored = cache.model is not None
        began_cpu = process_time()
        began_wall = perf_counter()
        hits = self.engine.run(times, objs, sizes, costs, scores, rows)
        # The same byte stream as one ``<d`` pack per decision.
        self.digest.update(scores.tobytes())
        if scored:
            self.score_hist.observe_batch(scores)
        self.cpu_seconds += process_time() - began_cpu
        self.busy_seconds += perf_counter() - began_wall
        self.requests += n
        self._note_histogram_delta()
        self.reply(
            "done", bytes(hits), None if rows is None else rows.tobytes()
        )

    def reply(
        self, kind: str, hits: bytes = b"", features: bytes | None = None
    ) -> None:
        """Send ``(kind, shard, stats, deltas, hits, features)``."""
        deltas, self._deltas = self._deltas, []
        self.conn.send(
            (kind, self.config.shard_id, self.stats(), deltas, hits, features)
        )

    def _note_histogram_delta(self) -> None:
        """Record the admission-score histogram's since-last-reply delta."""
        hist = self.score_hist
        delta = [
            now - before
            for now, before in zip(hist.bucket_counts, self._hist_shipped)
        ]
        count_delta = hist.count - self._hist_shipped_count
        if count_delta == 0:
            return
        total_delta = hist.total - self._hist_shipped_total
        self._hist_shipped = list(hist.bucket_counts)
        self._hist_shipped_count = hist.count
        self._hist_shipped_total = hist.total
        self._deltas.append((
            "hist", hist.name, hist.bounds,
            delta, count_delta, total_delta, hist.max,
        ))

    def stats(self) -> dict:
        """Cumulative per-shard stats (in every reply)."""
        return {
            "shard": self.config.shard_id,
            "requests": self.requests,
            "cpu_seconds": self.cpu_seconds,
            "busy_seconds": self.busy_seconds,
            "generation": self.generation,
            "attaches": self.attaches,
            "score_digest": self.digest.copy().hexdigest(),
        }


def shard_main(config: ShardConfig, conn: "Connection") -> None:
    """Worker entry point: serve routed batches until ``stop``.

    Message protocol (parent → worker): ``("batch", records,
    with_rows)`` — the bucket's requests as :mod:`repro.cluster.wire`
    records, and whether to ship feature rows back — and ``("stop",)``.
    Worker → parent: exactly one ``("done", shard, stats, deltas, hits,
    features)`` per batch, where ``hits`` is one byte per request in
    bucket order, ``deltas`` the telemetry records since the last reply
    and ``features`` the ``(n, n_features)`` little-endian float64 rows
    as bytes (``None`` unless ``with_rows``); ``("stopped", ...)`` of
    the same shape acknowledges shutdown.  Any worker exception is reported as
    ``("error", shard, message)`` before re-raising, so the router can
    fail fast instead of deadlocking on a silent child.
    """
    # A terminal Ctrl-C signals the whole foreground process group —
    # workers included.  Shutdown is the router's job (a "stop" message
    # followed by join-or-terminate), so the worker must keep serving
    # through the router's shutdown instead of dying mid-batch with a
    # KeyboardInterrupt half-reply in the pipe.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    state = _ShardState(config, conn)
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "batch":
                state.process(message[1], message[2])
            elif kind == "stop":
                state.reply("stopped")
                return
            else:
                raise ValueError(f"unknown cluster message: {kind!r}")
    except BaseException as exc:
        try:
            conn.send(("error", config.shard_id, repr(exc)))
        except (BrokenPipeError, OSError):
            pass
        raise
    finally:
        # Drop the zero-copy model (and the engine caching its predictor)
        # before detaching: its numpy views pin the shared mapping, and a
        # pinned mapping can be closed neither here nor in
        # ``SharedMemory.__del__`` (interpreter-exit noise).
        state.cache.model = None
        del state.engine
        state.reader.close()
        conn.close()

"""The always-on serving loop: bounded ingestion, batched scoring, drain.

Deployment shape (see ``docs/serving.md`` for the operations runbook)::

    driver ──await put──▶ asyncio.Queue(queue_depth) ──get──▶ BatchScorer
      (trace replay /        bounded: backpressure,              │
       synthetic arrivals)   never silent loss   per window-bounded part:
                                                 apply_scored each, then one
                                                 record_for_training
                                                                 │
                             trainer ◀── window boundary
                             (repro.core.trainer; the model is live
                              from the next part's polls on)

Zero dropped requests is structural, not aspirational: the only buffer is
the bounded queue, producers ``await put`` into it (they *wait* when it is
full — ``serve.backpressure_waits`` counts how often), and shutdown drains
whatever is queued through the scorer before flushing telemetry.  The
``serve.dropped`` counter exists so the invariant is observable; it moves
only if a hard abort interrupts the drain itself.

Cancellation (SIGINT under ``asyncio.run``) is the supported shutdown
path: the loop catches ``CancelledError``, drains the queue
synchronously, closes the partial telemetry window exactly once
(:meth:`~repro.obs.WindowedRegistry.flush` is atomic against racing
flushes), and re-raises so the runner sees a regular interrupt.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, AsyncIterable, Callable

from ..obs import get_registry
from ..trace import Request
from .engine import BatchScorer

if TYPE_CHECKING:  # annotation only; avoids repro.core import at runtime.
    from ..core.online import LFOOnline

__all__ = ["ServeConfig", "ServeReport", "ServingLoop"]

#: Queue sentinel: the producer posts it after the driver is exhausted so
#: the consumer can finish in-flight batches and return cleanly.
_EOF = object()


@dataclass(frozen=True)
class ServeConfig:
    """Sizing knobs for the serving loop.

    Attributes:
        queue_depth: ingestion queue bound.  The deeper the queue, the
            more burst the service absorbs before backpressuring the
            driver — and the more requests a shutdown drain must score.
        max_batch: cap on both the queue drain per scoring pass and the
            engine's speculative lookahead.
    """

    queue_depth: int = 1024
    max_batch: int = 256

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")


@dataclass
class ServeReport:
    """What one serving run did — the CLI verdict's raw material."""

    requests: int = 0
    hits: int = 0
    hit_bytes: float = 0.0
    miss_bytes: float = 0.0
    batches: int = 0
    model_handoffs: int = 0
    backpressure_waits: int = 0
    dropped: int = 0
    drained: bool = True

    @property
    def bhr(self) -> float | None:
        """Byte hit ratio over the whole run (None before any bytes)."""
        total = self.hit_bytes + self.miss_bytes
        if total <= 0:
            return None
        return self.hit_bytes / total

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "hit_bytes": self.hit_bytes,
            "miss_bytes": self.miss_bytes,
            "bhr": self.bhr,
            "batches": self.batches,
            "model_handoffs": self.model_handoffs,
            "backpressure_waits": self.backpressure_waits,
            "dropped": self.dropped,
            "drained": self.drained,
        }


class ServingLoop:
    """Run ``policy`` continuously over ``driver``'s request stream.

    One producer task feeds the bounded queue from the driver; the
    consumer (the :meth:`run` coroutine itself) drains it in batches
    through a :class:`~repro.serve.BatchScorer`.  Telemetry rolls at
    batch edges (``registry.maybe_roll()``), so window closes — and the
    SLO engine subscribed to them — happen on the serving path
    with bounded staleness.

    ``on_decision(request, hit)`` is invoked per request after its batch
    is applied — the reply hook a transport would attach to.

    ``scorer`` swaps the scoring engine: anything exposing
    ``process(requests) -> list[bool]`` and ``n_handoffs`` (e.g.
    :class:`repro.cluster.ClusterScorer`, which fans batches out across
    shard processes and trains through a bare
    :class:`repro.core.WindowTrainer` — ``policy`` is then ``None``,
    nothing serves in this process).  A scorer decides; the loop counts
    every request, hit, byte and handoff, whichever scorer decided.
    """

    def __init__(
        self,
        policy: "LFOOnline | None",
        driver: AsyncIterable[Request],
        config: ServeConfig | None = None,
        on_decision: Callable[[Request, bool], None] | None = None,
        scorer: "BatchScorer | None" = None,
    ) -> None:
        self.policy = policy
        self.driver = driver
        self.config = config or ServeConfig()
        self.on_decision = on_decision
        self.report = ServeReport()
        self.scorer = scorer or BatchScorer(
            policy, max_batch=self.config.max_batch
        )
        registry = get_registry()
        self._registry = registry
        self._requests_counter = registry.counter("serve.requests")
        self._batches_counter = registry.counter("serve.batches")
        self._handoff_counter = registry.counter("serve.model_handoffs")
        self._dropped_counter = registry.counter("serve.dropped")
        self._backpressure_counter = registry.counter(
            "serve.backpressure_waits"
        )
        self._queue_depth_gauge = registry.gauge("serve.queue_depth")
        # Producer-shared series (see repro.obs.windows): folding the
        # hit/miss bytes here keeps window_bhr and the BHR SLO
        # objective working unchanged over serving windows.
        self._hit_bytes_counter = registry.counter("sim.hit_bytes")
        self._miss_bytes_counter = registry.counter("sim.miss_bytes")
        self._finalised = False

    async def run(self) -> ServeReport:
        """Serve until the driver is exhausted (or the task is cancelled).

        Cancellation drains the queue through the scorer, flushes the
        partial telemetry window exactly once, and re-raises.
        """
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.queue_depth)
        producer = asyncio.create_task(self._produce(queue))
        try:
            await self._consume(queue)
            await producer  # surfaces driver errors after the EOF drain
        except asyncio.CancelledError:
            producer.cancel()
            self._drain(queue)
            raise
        # Consumer failure: stop feeding the queue before propagating.
        except BaseException:
            producer.cancel()
            raise
        finally:
            self._finalise()
        return self.report

    async def _produce(self, queue: asyncio.Queue) -> None:
        try:
            async for request in self.driver:
                if queue.full():
                    # Structural zero-drop: a full queue *waits* the
                    # producer instead of shedding the request.
                    self.report.backpressure_waits += 1
                    self._backpressure_counter.inc()
                await queue.put(request)
        except asyncio.CancelledError:
            raise  # shutdown: the drain path takes over, no EOF needed
        except Exception:
            # Still post the sentinel so the consumer finishes what is
            # already queued; the error resurfaces from ``await producer``.
            await queue.put(_EOF)
            raise
        else:
            await queue.put(_EOF)

    async def _consume(self, queue: asyncio.Queue) -> None:
        max_batch = self.config.max_batch
        while True:
            item = await queue.get()
            if item is _EOF:
                return
            batch = [item]
            saw_eof = False
            while len(batch) < max_batch:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _EOF:
                    saw_eof = True
                    break
                batch.append(nxt)
            self._process_batch(batch, queue)
            if saw_eof:
                return
            # Cooperative yield: let the producer top the queue back up
            # (and any metrics server thread's loop callbacks run).
            await asyncio.sleep(0)

    def _process_batch(
        self, batch: list[Request], queue: asyncio.Queue
    ) -> None:
        hits = self.scorer.process(batch)
        hit_bytes = 0.0
        miss_bytes = 0.0
        n_hits = 0
        for request, hit in zip(batch, hits):
            if hit:
                hit_bytes += request.size
                n_hits += 1
            else:
                miss_bytes += request.size
        report = self.report
        report.requests += len(batch)
        report.hits += n_hits
        report.hit_bytes += hit_bytes
        report.miss_bytes += miss_bytes
        report.batches += 1
        handoffs = self.scorer.n_handoffs
        self._handoff_counter.inc(handoffs - report.model_handoffs)
        report.model_handoffs = handoffs
        self._requests_counter.inc(len(batch))
        self._batches_counter.inc()
        self._hit_bytes_counter.inc(hit_bytes)
        self._miss_bytes_counter.inc(miss_bytes)
        self._queue_depth_gauge.set(queue.qsize())
        self._registry.maybe_roll()
        if self.on_decision is not None:
            for request, hit in zip(batch, hits):
                self.on_decision(request, hit)

    def _drain(self, queue: asyncio.Queue) -> None:
        """Score everything still queued — the zero-drop half of shutdown.

        Runs synchronously (the event loop is tearing down), bounded by
        ``queue_depth`` items.  Only a hard abort *during* the drain can
        leave requests unscored; those are counted into ``serve.dropped``
        so the loss is loud, and the report marks the run undrained.
        """
        pending: list[Request] = []
        while True:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _EOF:
                pending.append(item)
        done = 0
        try:
            while done < len(pending):
                chunk = pending[done:done + self.config.max_batch]
                self._process_batch(chunk, queue)
                done += len(chunk)
        except BaseException:
            left = len(pending) - done
            self.report.dropped += left
            self.report.drained = False
            self._dropped_counter.inc(left)
            raise

    def _finalise(self) -> None:
        """Close out telemetry exactly once, whatever path got here."""
        if self._finalised:
            return
        self._finalised = True
        self._queue_depth_gauge.set(0)
        self._registry.flush()

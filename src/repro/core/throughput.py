"""Prediction throughput measurement (Figure 7).

The paper measures how many requests per second LFO's decision trees can
score as predictor threads are added, and converts the rate into the link
bandwidth a CDN server could sustain (40 Gbit/s needs ~2 threads at 32 KB
mean object size on their hardware).

Scoring goes through the model's :class:`repro.gbdt.CompiledPredictor`.
With its C kernel available the call releases the GIL, so predictor
threads would scale like the paper's; on the numpy fallback fancy
indexing holds the GIL and threads collapse — worker *processes* give
real parallelism either way, so they are what is measured.  The scaling
shape and the Gbit/s arithmetic carry over to both backends.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lfo import LFOModel

__all__ = ["ThroughputPoint", "measure_throughput", "gbits_served"]


@dataclass(frozen=True)
class ThroughputPoint:
    """One (worker count, rate) measurement."""

    threads: int
    requests_per_second: float
    batch_size: int


# Module-level state for process workers (set by the pool initializer so the
# model is unpickled once per worker, not once per task).
_WORKER_MODEL: LFOModel | None = None
_WORKER_BATCH: np.ndarray | None = None


def _init_worker(model: LFOModel, batch: np.ndarray) -> None:
    global _WORKER_MODEL, _WORKER_BATCH
    _WORKER_MODEL = model
    _WORKER_BATCH = batch
    # One untimed scoring call binds the compiled predictor — and, in a
    # fresh worker process, builds the prediction kernel — so the timed
    # loop measures steady-state scoring only.
    model.likelihood(batch[:1])


def _scoring_loop(duration: float) -> int:
    """Score batches until the duration elapses; returns predictions made."""
    deadline = time.perf_counter() + duration
    done = 0
    while time.perf_counter() < deadline:
        _WORKER_MODEL.likelihood(_WORKER_BATCH)
        done += len(_WORKER_BATCH)
    return done


def measure_throughput(
    model: LFOModel,
    X: np.ndarray,
    threads: int,
    batch_size: int = 4096,
    min_duration: float = 0.5,
) -> ThroughputPoint:
    """Measure sustained predictions/second at a given worker count.

    Args:
        model: the predictor to score with.
        X: feature rows to draw scoring batches from.
        threads: number of parallel worker processes (one scores in the
            calling process).
        batch_size: rows per scoring call.
        min_duration: measurement window per worker, in seconds.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    n = len(X)
    if n == 0:
        raise ValueError("X must be non-empty")
    batch = np.ascontiguousarray(X[: min(batch_size, n)])

    if threads == 1:
        _init_worker(model, batch)
        start = time.perf_counter()
        total = _scoring_loop(min_duration)
        elapsed = time.perf_counter() - start
    else:
        with ProcessPoolExecutor(
            max_workers=threads,
            initializer=_init_worker,
            initargs=(model, batch),
        ) as pool:
            # Warm the workers (imports + model unpickle) outside the timer.
            list(pool.map(_scoring_loop, [0.01] * threads))
            start = time.perf_counter()
            total = sum(pool.map(_scoring_loop, [min_duration] * threads))
            elapsed = time.perf_counter() - start

    return ThroughputPoint(
        threads=threads,
        requests_per_second=total / elapsed,
        batch_size=len(batch),
    )


def gbits_served(requests_per_second: float, mean_object_bytes: float) -> float:
    """Link bandwidth (Gbit/s) that a prediction rate can keep busy.

    The paper's arithmetic: every served request moves the object's bytes,
    so ``rate * mean_size * 8 / 1e9`` Gbit/s.
    """
    return requests_per_second * mean_object_bytes * 8.0 / 1e9

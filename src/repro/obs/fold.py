"""Folding remote (per-shard) telemetry deltas into a local registry.

Shard worker processes cannot report into the router's registry — the
instruments are process-local by design.  Instead each worker observes
into plain local ``Counter``/``Histogram`` instances and ships *deltas*
in its reply to each batch (:mod:`repro.cluster.worker`); the router
calls :func:`fold_deltas` on every reply, replaying the deltas into its
own (usually windowed) registry.  Because windows are
delta-encoded to begin with (:class:`repro.obs.WindowedRegistry`), a
folded counter increment or histogram bucket delta is indistinguishable
from a local observation — BHR, latency SLOs, and drift detection work
cluster-wide unchanged.

This module is the registry *forwarding layer*: metric names arrive as
data (picked from the wire records the shards produced at literal call
sites), so the ``obs-literal-name`` check is suppressed here — and only
here.
"""
# lint: ignore[obs-literal-name]

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .registry import MetricsRegistry, NullRegistry

__all__ = ["fold_deltas"]


def fold_deltas(
    registry: "MetricsRegistry | NullRegistry",
    items: Iterable[Sequence],
) -> int:
    """Replay shipped telemetry records into ``registry``; returns count.

    Two record shapes (produced by :mod:`repro.cluster.worker`):

    * ``("counter", name, delta)`` — fold ``delta`` into counter
      ``name``;
    * ``("hist", name, bounds, bucket_deltas, count, total, max)`` —
      fold a histogram window delta into histogram ``name`` (created
      with ``bounds`` on first sight; see
      :meth:`repro.obs.Histogram.merge_delta`).

    Unknown record kinds raise ``ValueError`` — a shard shipping records
    the router cannot fold is a protocol break, not noise to drop.
    """
    folded = 0
    for item in items:
        kind = item[0]
        if kind == "counter":
            _, name, delta = item
            registry.counter(name).inc(delta)
        elif kind == "hist":
            _, name, bounds, bucket_deltas, count, total, max_value = item
            registry.histogram(name, bounds).merge_delta(
                bucket_deltas, count, total, max_value
            )
        else:
            raise ValueError(f"unknown telemetry delta record: {kind!r}")
        folded += 1
    return folded

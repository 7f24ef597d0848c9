"""The request wire: fixed-width little-endian records, 32 bytes each.

A routed bucket goes down a shard's pipe as one byte string of
``time f8, obj i8, size i8, cost f8`` records (the columns
:class:`repro.trace.Trace` materialises), not as pickled ``Request``
objects.  The shard never rebuilds requests: :func:`unpack_requests`
views the bytes as those four columns — what the decision engine takes —
and validates them the way the ``Request`` constructor would have, so a
malformed batch is still rejected before any of it is scored.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from ..trace import Request

__all__ = ["RECORD", "pack_requests", "unpack_requests"]

#: One request on the wire: ``time, obj, size, cost``.
RECORD = struct.Struct("<dqqd")

_COLUMNS = np.dtype(
    [("time", "<f8"), ("obj", "<i8"), ("size", "<i8"), ("cost", "<f8")]
)


def pack_requests(bucket: Sequence[tuple[int, Request]]) -> bytes:
    """The requests of a :meth:`HashRing.partition` bucket as records."""
    pack = RECORD.pack
    return b"".join(
        [pack(r.time, r.obj, r.size, r.cost) for _index, r in bucket]
    )


def unpack_requests(
    data: bytes,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``(times, objs, sizes, costs)`` columns of the records
    :func:`pack_requests` wrote, in order.

    Raises ``ValueError`` for a truncated byte string or any record a
    ``Request`` would reject (size <= 0); a negative cost means "the
    size", as it does there.
    """
    if len(data) % RECORD.size:
        raise ValueError(
            f"request records are {RECORD.size} bytes each, got {len(data)}"
        )
    records = np.frombuffer(data, dtype=_COLUMNS)
    sizes = records["size"]
    if len(sizes) and sizes.min() <= 0:
        raise ValueError(
            f"request size must be positive, got {int(sizes.min())}"
        )
    costs = records["cost"]
    defaulted = costs < 0
    if defaulted.any():
        costs = np.where(defaulted, sizes.astype(np.float64), costs)
    return records["time"], records["obj"], sizes, costs

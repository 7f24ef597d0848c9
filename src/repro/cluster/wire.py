"""The request wire: fixed-width little-endian records, 32 bytes each.

A routed bucket goes down a shard's pipe as one byte string of
``time f8, obj i8, size i8, cost f8`` records (the columns
:class:`repro.trace.Trace` materialises), not as pickled ``Request``
objects.  The shard rebuilds each request through the normal
constructor, so a malformed record is rejected before it is scored.
"""

from __future__ import annotations

import struct
from itertools import starmap
from typing import Sequence

from ..trace import Request

__all__ = ["RECORD", "pack_requests", "unpack_requests"]

#: One request on the wire: ``time, obj, size, cost``.
RECORD = struct.Struct("<dqqd")


def pack_requests(bucket: Sequence[tuple[int, Request]]) -> bytes:
    """The requests of a :meth:`HashRing.partition` bucket as records."""
    pack = RECORD.pack
    return b"".join(
        [pack(r.time, r.obj, r.size, r.cost) for _index, r in bucket]
    )


def unpack_requests(data: bytes) -> list[Request]:
    """Rebuild the requests :func:`pack_requests` wrote, in order.

    Raises ``ValueError`` for a truncated byte string or a record
    ``Request`` rejects (size <= 0).
    """
    if len(data) % RECORD.size:
        raise ValueError(
            f"request records are {RECORD.size} bytes each, got {len(data)}"
        )
    return list(starmap(Request, RECORD.iter_unpack(data)))

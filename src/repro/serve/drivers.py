"""Request drivers: async sources the serving loop ingests from.

A driver is anything ``async for`` can consume that yields
:class:`~repro.trace.Request` objects.  The two here cover the harness's
needs — offline replay at queue speed, and a paced synthetic arrival
process for latency-realistic runs — and double as the reference for
writing a real transport adapter (accept a connection, yield requests,
let the bounded queue backpressure the socket).
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Iterable

import numpy as np

from ..trace import Request

__all__ = ["TraceReplayDriver", "SyntheticArrivalDriver"]

#: Replay fairness: yield the event loop at least every N requests even
#: when the queue never fills (a put into a non-full queue never
#: suspends, so an unthrottled replay could starve the consumer).
_YIELD_EVERY = 256


class TraceReplayDriver:
    """Replay recorded requests as fast as the bounded queue admits.

    The driver itself applies no pacing — backpressure comes from the
    loop's ``await put`` when the queue is full, which is the mechanism
    the zero-drop guarantee rests on.  It yields the event loop every
    ``_YIELD_EVERY`` requests.
    """

    def __init__(self, requests: Iterable[Request]) -> None:
        self.requests = requests

    async def __aiter__(self) -> AsyncIterator[Request]:
        for n, request in enumerate(self.requests, start=1):
            yield request
            if n % _YIELD_EVERY == 0:
                await asyncio.sleep(0)


class SyntheticArrivalDriver:
    """Replay requests on a seeded Poisson arrival process.

    Inter-arrival gaps are exponential with mean ``1 / rate`` seconds of
    loop time, drawn from a seeded generator so a run is reproducible
    end-to-end (the ``det-rng`` source check holds ``repro.serve`` to the same
    seeded-RNG bar as the simulator).  Useful when the run should exercise
    idle windows and arrival bursts rather than saturate the queue.
    """

    def __init__(
        self,
        requests: Iterable[Request],
        rate: float,
        seed: int = 0,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive (requests per second)")
        self.requests = requests
        self.rate = float(rate)
        self.seed = seed

    async def __aiter__(self) -> AsyncIterator[Request]:
        rng = np.random.default_rng(self.seed)
        scale = 1.0 / self.rate
        for request in self.requests:
            await asyncio.sleep(float(rng.exponential(scale)))
            yield request

"""Request and trace containers.

A *trace* is an ordered sequence of requests, each identified by an object id,
a size in bytes, and an optional retrieval cost.  This mirrors the anonymised
CDN trace format used in the paper (sequence number, object id, object size),
extended with the per-object cost that the OPT formulation needs (Section 2.1
of the paper: cost = size to optimise byte hit ratio, cost = 1 to optimise
object hit ratio, or an arbitrary retrieval latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Request", "Trace", "CostModel"]


@dataclass(frozen=True, slots=True)
class Request:
    """One cache request.

    Attributes:
        time: logical timestamp (monotonically non-decreasing sequence number
            or wall-clock seconds).
        obj: object identifier.
        size: object size in bytes (must be positive).
        cost: retrieval cost of a miss for this object.  Defaults to the
            object size, which makes the OPT objective the byte hit ratio.
    """

    time: float
    obj: int
    size: int
    cost: float = -1.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"request size must be positive, got {self.size}")
        if self.cost < 0:
            object.__setattr__(self, "cost", float(self.size))


class CostModel:
    """Named cost assignments from the paper (Section 2.1)."""

    #: Optimise the byte hit ratio: cost equals object size.
    BHR = "bhr"
    #: Optimise the object hit ratio: every miss costs 1.
    OHR = "ohr"
    #: Keep whatever per-request costs the trace carries.
    TRACE = "trace"

    @staticmethod
    def apply(requests: Iterable[Request], model: str) -> list[Request]:
        """Return a new request list with costs set per ``model``."""
        if model == CostModel.BHR:
            return [
                Request(r.time, r.obj, r.size, float(r.size)) for r in requests
            ]
        if model == CostModel.OHR:
            return [Request(r.time, r.obj, r.size, 1.0) for r in requests]
        if model == CostModel.TRACE:
            return list(requests)
        raise ValueError(f"unknown cost model: {model!r}")


@dataclass
class Trace:
    """An ordered sequence of requests with columnar accessors.

    The columnar views (`times`, `objs`, `sizes`, `costs`) and the
    occurrence links behind `next_occurrence` / `prev_occurrence` are
    materialised lazily as numpy arrays and cached; they are invalidated
    whenever requests are appended.
    """

    requests: list[Request] = field(default_factory=list)
    name: str = "trace"

    def __post_init__(self) -> None:
        self._columns: dict[str, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.requests[index], name=self.name)
        return self.requests[index]

    def append(self, request: Request) -> None:
        """Append one request, invalidating cached columnar views."""
        self.requests.append(request)
        self._columns = None

    def extend(self, requests: Iterable[Request]) -> None:
        """Append many requests, invalidating cached columnar views."""
        self.requests.extend(requests)
        self._columns = None

    # -- columnar views ----------------------------------------------------

    def _materialise(self) -> dict[str, np.ndarray]:
        if self._columns is None:
            n = len(self.requests)
            times = np.empty(n, dtype=np.float64)
            objs = np.empty(n, dtype=np.int64)
            sizes = np.empty(n, dtype=np.int64)
            costs = np.empty(n, dtype=np.float64)
            for i, r in enumerate(self.requests):
                times[i] = r.time
                objs[i] = r.obj
                sizes[i] = r.size
                costs[i] = r.cost
            self._columns = {
                "times": times,
                "objs": objs,
                "sizes": sizes,
                "costs": costs,
            }
        return self._columns

    @property
    def times(self) -> np.ndarray:
        """Timestamps as a float64 array."""
        return self._materialise()["times"]

    @property
    def objs(self) -> np.ndarray:
        """Object ids as an int64 array."""
        return self._materialise()["objs"]

    @property
    def sizes(self) -> np.ndarray:
        """Object sizes as an int64 array."""
        return self._materialise()["sizes"]

    @property
    def costs(self) -> np.ndarray:
        """Retrieval costs as a float64 array."""
        return self._materialise()["costs"]

    # -- derived structure ---------------------------------------------------

    def _occurrence_links(self) -> tuple[np.ndarray, np.ndarray]:
        """``(earlier, later)`` index pairs of consecutive requests to one
        object: a stable sort groups each object's requests in trace order.
        Cached with the columns (one sort serves every solver pass over a
        window); callers must not write to them."""
        columns = self._materialise()
        if "later" not in columns:
            objs = columns["objs"]
            order = np.argsort(objs, kind="stable")
            same = objs[order[1:]] == objs[order[:-1]]
            columns["earlier"] = order[:-1][same]
            columns["later"] = order[1:][same]
        return columns["earlier"], columns["later"]

    def next_occurrence(self) -> np.ndarray:
        """Index of the next request to the same object, or -1 if none.

        This is the `L_i` building block of the paper's ranking-axis pruning
        (Section 2.1) and of the OPT min-cost-flow graph (bypass edges connect
        consecutive requests to the same object).
        """
        earlier, later = self._occurrence_links()
        nxt = np.full(len(self.requests), -1, dtype=np.int64)
        nxt[earlier] = later
        return nxt

    def prev_occurrence(self) -> np.ndarray:
        """Index of the previous request to the same object, or -1 if none."""
        earlier, later = self._occurrence_links()
        prv = np.full(len(self.requests), -1, dtype=np.int64)
        prv[later] = earlier
        return prv

    def total_bytes(self) -> int:
        """Sum of request sizes (bytes moved if nothing were cached)."""
        return int(self.sizes.sum())

    def footprint(self) -> int:
        """Sum of distinct object sizes (working-set size in bytes), each
        object at the size of its last request: a stable sort groups an
        object's requests in trace order, and the last of each run counts."""
        order = np.argsort(self.objs, kind="stable")
        objs = self.objs[order]
        last = np.empty(len(objs), dtype=bool)
        last[-1:] = True
        np.not_equal(objs[1:], objs[:-1], out=last[:-1])
        return int(self.sizes[order[last]].sum())

    def windows(self, window: int) -> Iterator["Trace"]:
        """Yield consecutive fixed-size windows ``W[t]`` (the paper's Fig. 2).

        The final partial window is yielded as well if non-empty.
        """
        if window <= 0:
            raise ValueError("window size must be positive")
        for start in range(0, len(self.requests), window):
            chunk = self.requests[start : start + window]
            if chunk:
                yield Trace(chunk, name=f"{self.name}[{start}:{start + len(chunk)}]")

    def validate(self) -> None:
        """Raise ``ValueError`` on malformed traces (time going backwards,
        inconsistent sizes for the same object id)."""
        last_time = float("-inf")
        sizes: dict[int, int] = {}
        for i, r in enumerate(self.requests):
            if r.time < last_time:
                raise ValueError(
                    f"request {i}: time {r.time} precedes {last_time}"
                )
            last_time = r.time
            known = sizes.get(r.obj)
            if known is not None and known != r.size:
                raise ValueError(
                    f"request {i}: object {r.obj} size changed "
                    f"{known} -> {r.size}"
                )
            sizes[r.obj] = r.size

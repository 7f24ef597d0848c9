"""The machine under the benchmark: its speed right now, and procfs
accounting.

Shared hosts do not run at one speed.  The 2-core VM this benchmark was
sized on runs identical code at anything between 1.0x and ~2x its best
time depending on what its neighbours are doing, in episodes of a
fraction of a second and in regimes that last longer than a whole run.
Thirty consecutive runs of an unchanged ``scalar_mix`` read 53k to 88k
req/s as the best whole raw repeat of five (quartile spread 0.25), which
no regression bound survives and no number of repeats inside one 15 s
run steps around.

So :class:`HostSpeed` samples the host's speed before, after and
throughout every repeat (every 2000 requests or every batch), and the
ledger divides the repeat's whole wall and CPU time by the mean of its
samples.  A sample times two fixed loops that share no code with the
program under test — one arithmetic, one walking a 20k-object graph —
against reference constants.  Two, because the interference does not
slow everything alike: in a regime where the arithmetic loop ran 1.2x
slower the object loop ran 1.85x slower, ``scalar_mix`` 1.5x and
``batched_churn`` 1.6x.  The factor is the geometric mean of the two
slowdowns.  Over a hundred consecutive repeats of ``batched_churn`` that
saw both regimes, the median corrected repeat of five spread 0.04 (raw
0.19, arithmetic loop alone 0.13).  Samples at a repeat's two ends alone
do not do: the speed moves within a one-second repeat.  The correction
is approximate and it is the only one made; raw values and the factors
are kept beside the corrected ones.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
from time import perf_counter, process_time

import numpy as np

__all__ = [
    "HostSpeed", "numpy_loop_ns", "cpu_seconds", "own_peak_rss_mb",
    "children_peak_rss_mb",
]

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: ns per iteration of the two sampling loops on the host this benchmark
#: was sized on, in its fast state.  They define "reference host speed" (a
#: factor of 1.0) and so fix the unit of every corrected time; in a
#: comparison of two ledgers they cancel.
REFERENCE_ARITHMETIC_NS = 53.0
REFERENCE_OBJECTS_NS = 115.0

_ARITHMETIC_ITERATIONS = 5_000  # ~0.3 ms
_OBJECT_VISITS = 1_000  # ~0.3 ms


class _Node:
    __slots__ = ("size", "count", "last")

    def __init__(self, size: int) -> None:
        self.size = size
        self.count = 0
        self.last = 0.0


def _object_graph() -> tuple[dict[int, _Node], list[int]]:
    """20k small objects behind a dict, and a fixed random visiting order."""
    nodes = {i * 7919: _Node(i % 100 + 1) for i in range(20_000)}
    keys = list(nodes)
    order = np.random.default_rng(1).integers(len(keys), size=_OBJECT_VISITS)
    return nodes, [keys[index] for index in order.tolist()]


_NODES, _VISITS = _object_graph()


class HostSpeed:
    """Host speed samples taken around (and inside) one stretch of work."""

    def __init__(self) -> None:
        #: ns per iteration of the two loops, per sample.
        self.arithmetic_ns: list[float] = []
        self.objects_ns: list[float] = []
        #: wall seconds spent sampling (all of it CPU time of this process).
        self.seconds = 0.0

    def sample(self) -> None:
        nodes, visits = _NODES, _VISITS
        began = perf_counter()
        acc = 0
        for i in range(_ARITHMETIC_ITERATIONS):
            acc += i * i
        # Twice, the second pass timed: the first pulls the visited nodes
        # back into cache, so that what the program did to the caches
        # just before does not show in the sample.
        split = perf_counter()
        for _pass in range(2):
            middle = perf_counter()
            for key in visits:
                node = nodes[key]
                node.count += 1
                node.last = acc * 0.5
                acc += node.size
        ended = perf_counter()
        self.seconds += ended - began
        self.arithmetic_ns.append((split - began) / _ARITHMETIC_ITERATIONS * 1e9)
        self.objects_ns.append((ended - middle) / _OBJECT_VISITS * 1e9)

    def factor(self, object_share: float = 0.5) -> float:
        """Mean slowdown against the reference over the samples.

        ``object_share`` is the weight of the object loop's slowdown in
        the geometric mean: a half for the cache engine; none for
        training and set-up — label computation, tree fitting, trace
        generation — numeric code that slows the way the arithmetic loop
        does (with the object loop in, ``online_serve``'s ``req_per_s``
        spread 0.12-0.18 over ten runs; without, 0.03-0.10).
        """
        return statistics.fmean(
            (arithmetic / REFERENCE_ARITHMETIC_NS) ** (1.0 - object_share)
            * (objects / REFERENCE_OBJECTS_NS) ** object_share
            for arithmetic, objects in zip(self.arithmetic_ns, self.objects_ns)
        )


def numpy_loop_ns() -> float:
    """ns per element of a fixed cache-resident numpy loop, best of 5."""
    a = np.arange(4_096, dtype=np.float64)
    out = np.empty_like(a)
    best = float("inf")
    for _ in range(5):
        began = perf_counter()
        for _ in range(200):
            np.multiply(a, a, out=out)
        best = min(best, perf_counter() - began)
    return best / (200 * 4_096) * 1e9


# -- procfs ------------------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime


def cpu_seconds() -> float:
    """CPU time of this process plus its live child processes."""
    return process_time() + sum(
        _proc_cpu_seconds(child.pid)
        for child in multiprocessing.active_children()
    )


def _peak_rss_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def own_peak_rss_mb() -> float:
    return _peak_rss_mb("self")


def children_peak_rss_mb() -> float:
    """Summed peak RSS of the live child processes (the shards)."""
    return sum(
        _peak_rss_mb(child.pid) for child in multiprocessing.active_children()
    )

"""Exact min-cost flow via successive shortest paths with potentials.

The solver repeatedly finds a cheapest residual path from a super-source
(connected to all remaining supplies) to a super-sink (connected from all
remaining demands) using Dijkstra on *reduced* costs, then augments by the
path bottleneck.  Node potentials keep reduced costs non-negative, so
Dijkstra stays valid after augmentation; input costs must be non-negative
(as they are in the OPT caching graphs), so the initial potentials are
zero.

This is the same optimum as LEMON's network simplex used by the paper, just
a different exact algorithm that is short enough to implement and verify.

The residual graph is built once as numpy columns: arc ``2i`` is input
arc ``i`` and arc ``2i + 1`` its partner (reversed, zero capacity, negated
cost), so ``arc ^ 1`` is always the partner; then one arc from the
super-source or to the super-sink per node with a supply or demand, in
node order.  A node's adjacency is its arcs in index order (a stable sort
on the arcs' tails), stored CSR.

The augmentation loop over those columns exists twice:
:func:`_augment_python` is the reference (and the path taken without a C
toolchain), ``ssp_augment`` in :mod:`repro._native` runs the same
algorithm.  Everything but the priority queue is a statement-by-statement
transliteration; the queue is ``heapq`` with lazy deletion here and an
indexed binary heap with decrease-key there.  What is guaranteed is the
outcome: the two are bit-identical — flow, residual capacities,
potentials, total cost, path count — not merely both optimal.  The OPT
graphs are massively degenerate (every bypass arc of a ``cost == size``
trace costs 1.0/byte), so the labels are whatever the tie-breaks say:

* both queues order entries lexicographically on ``(dist, node)``, a
  *total* order, and a node's live key is its current ``dist`` (a stale
  ``heapq`` pair is larger than the live one and is skipped when it
  surfaces).  Each pop therefore returns the least ``(dist, node)`` among
  the reached, unfinished nodes whatever the heap's layout, and the two
  loops finish the same nodes in the same order;
* every float expression keeps its association —
  ``((d + cost) + pot_u) - pot_v``, accepted iff ``< dist[v] - 1e-12``,
  ``total_cost += bottleneck * cost`` walked sink→source — and the module
  is compiled with ``-ffp-contract=off``;
* arcs are scanned in adjacency order, potentials advance by the final
  distance of every visited node, capacities are ``int64`` (a network
  whose capacities or supply do not convert to ``double`` exactly takes
  the Python loop).

``tests/test_flow.py`` holds the two paths equal on generated networks,
heavily tied ones included, and shows that mutants of the C heap fail.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import _native

if TYPE_CHECKING:  # annotation only
    from numpy.typing import ArrayLike

__all__ = ["MinCostFlowResult", "solve_min_cost_flow", "InfeasibleFlowError"]

#: Capacities and supplies below this convert to ``double`` exactly, and
#: a residual pair's summed capacity stays far inside ``int64``; a network
#: beyond it is solved by the Python loop, whose integers do not wrap.
_NATIVE_CAPACITY_LIMIT = 2**53


class InfeasibleFlowError(ValueError):
    """Raised when supplies cannot be routed to demands."""


@dataclass(frozen=True)
class MinCostFlowResult:
    """Outcome of a min-cost flow solve.

    Attributes:
        total_cost: objective value of the optimal flow.
        flow: ``int64`` flow on each input arc, in input order.
        augmentations: number of augmenting-path iterations (diagnostic).
    """

    total_cost: float
    flow: np.ndarray
    augmentations: int


def _int64(values) -> np.ndarray:
    """``values`` as an ``int64`` column, refusing what would not convert
    exactly: floats, and integers ``int64`` cannot hold."""
    column = np.asarray(values)
    if column.size and (
        column.dtype.kind not in "iu"
        or column.max() > np.iinfo(np.int64).max
    ):
        raise ValueError(
            "endpoints, capacities and supplies must be int64 integers"
        )
    return column.astype(np.int64, copy=False)


def _residual_graph(tails, heads, capacities, costs, supply) -> tuple:
    """Check the columns and build the residual graph: the arguments of
    ``ssp_augment`` (and :func:`_augment_python`), in its order.

    New arrays throughout; the caller's columns are only read.
    """
    tails, heads, capacities, supply = (
        _int64(column) for column in (tails, heads, capacities, supply)
    )
    costs = np.asarray(costs, dtype=np.float64)
    n, m = len(supply), len(tails)
    if n == 0:
        raise ValueError("a flow network needs at least one node")
    if not len(heads) == len(capacities) == len(costs) == m:
        raise ValueError("arc columns differ in length")
    if not (_native.all_below(tails, n) and _native.all_below(heads, n)):
        raise ValueError("arc endpoint out of range")
    if (capacities < 0).any():
        raise ValueError("arc capacity must be non-negative")
    if not np.isfinite(costs).all() or (costs < 0).any():
        raise ValueError("arc costs must be finite and non-negative")
    balance = sum(supply.tolist())
    if balance:
        raise InfeasibleFlowError(
            f"total supply {balance} != 0; instance unbalanced"
        )

    source, sink = n, n + 1
    ends = np.flatnonzero(supply)
    feeds = supply[ends] > 0
    forward_tails = np.concatenate((tails, np.where(feeds, source, ends)))
    forward_heads = np.concatenate((heads, np.where(feeds, ends, sink)))
    arc_tail = np.column_stack((forward_tails, forward_heads)).ravel()
    arc_to = np.column_stack((forward_heads, forward_tails)).ravel()
    arc_cap = np.zeros(len(arc_tail), dtype=np.int64)
    arc_cap[0::2] = np.concatenate((capacities, np.abs(supply[ends])))
    arc_cost = np.empty(len(arc_tail), dtype=np.float64)
    arc_cost[0::2] = np.concatenate((costs, np.zeros(len(ends))))
    arc_cost[1::2] = -arc_cost[0::2]
    adj_start = np.zeros(n + 3, dtype=np.int64)
    np.cumsum(np.bincount(arc_tail, minlength=n + 2), out=adj_start[1:])
    adj_arcs = np.argsort(arc_tail, kind="stable").astype(np.int64)
    remaining = sum(supply[supply > 0].tolist())
    return (
        source, sink, adj_start, adj_arcs, arc_to, arc_tail, arc_cap,
        arc_cost, np.zeros(n + 2), remaining,
    )


def _augment_python(
    source: int,
    sink: int,
    adj_start: np.ndarray,
    adj_arcs: np.ndarray,
    arc_to: np.ndarray,
    arc_tail: np.ndarray,
    arc_cap: np.ndarray,
    arc_cost: np.ndarray,
    potential: np.ndarray,
    remaining: int,
) -> tuple[int, float, int]:
    """Augment along cheapest residual paths until the supply is routed.

    Takes ``ssp_augment``'s arguments and returns what it returns,
    ``(stranded, total_cost, augmentations)``; ``stranded`` is the supply
    left when no residual path reaches the sink (0 = solved).  Writes the
    residual capacities into ``arc_cap`` and the final potentials into
    ``potential``.  Runs on Python lists, whose integers do not wrap.
    """
    starts = adj_start.tolist()
    arcs = adj_arcs.tolist()
    adjacency = [arcs[lo:hi] for lo, hi in zip(starts, starts[1:])]
    to = arc_to.tolist()
    tail = arc_tail.tolist()
    cap = arc_cap.tolist()
    cost = arc_cost.tolist()
    pot = potential.tolist()
    n_total = len(pot)
    total_cost = 0.0
    augmentations = 0
    INF = float("inf")

    while remaining > 0:
        # Dijkstra with reduced costs from the super-source.
        dist = [INF] * n_total
        parent_arc = [-1] * n_total
        dist[source] = 0.0
        heap = [(0.0, source)]
        visited = [False] * n_total
        while heap:
            d, u = heapq.heappop(heap)
            if visited[u]:
                continue
            visited[u] = True
            pot_u = pot[u]
            for arc in adjacency[u]:
                if cap[arc] <= 0:
                    continue
                v = to[arc]
                if visited[v]:
                    continue
                nd = d + cost[arc] + pot_u - pot[v]
                if nd < dist[v] - 1e-12:
                    dist[v] = nd
                    parent_arc[v] = arc
                    heapq.heappush(heap, (nd, v))
        if dist[sink] == INF:
            break

        # Update potentials with *final* distances.  Dijkstra ran to
        # completion, so every reachable node holds its true shortest
        # distance; unreachable nodes stay unreachable in later residual
        # graphs (augmentation only adds reverse arcs inside the
        # reachable set), so their potentials never matter.
        for v in range(n_total):
            if visited[v]:
                pot[v] += dist[v]

        # Bottleneck along the path.
        bottleneck = remaining
        v = sink
        while v != source:
            arc = parent_arc[v]
            if cap[arc] < bottleneck:
                bottleneck = cap[arc]
            v = tail[arc]

        # Augment.
        v = sink
        while v != source:
            arc = parent_arc[v]
            cap[arc] -= bottleneck
            cap[arc ^ 1] += bottleneck
            total_cost += bottleneck * cost[arc]
            v = tail[arc]
        remaining -= bottleneck
        augmentations += 1
    arc_cap[:] = cap
    potential[:] = pot
    return remaining, total_cost, augmentations


def solve_min_cost_flow(
    tails: ArrayLike,
    heads: ArrayLike,
    capacities: ArrayLike,
    costs: ArrayLike,
    supply: ArrayLike,
) -> MinCostFlowResult:
    """Route all supplies to demands at minimum cost.

    Arc ``i`` runs from node ``tails[i]`` to node ``heads[i]`` and carries
    up to ``capacities[i]`` units at ``costs[i]`` each; ``supply[v]`` is
    positive where flow enters the network and negative where it leaves,
    and its length is the node count.  The columns are only read.

    Raises:
        ValueError: if the arc columns differ in length, an endpoint is
            not a node, a capacity is negative, a cost is negative or not
            finite, an endpoint, capacity or supply is not an integer
            ``int64`` can hold, or there are no nodes.
        InfeasibleFlowError: if supplies and demands are unbalanced or
            cannot be routed under the capacities.
    """
    graph = _residual_graph(tails, heads, capacities, costs, supply)
    arc_cap, remaining = graph[6], graph[-1]
    augment = _augment_python
    native = _native.load()
    if native is not None and max(
        remaining, int(arc_cap.max(initial=0))
    ) < _NATIVE_CAPACITY_LIMIT:
        augment = native.ssp_augment
    stranded, total_cost, augmentations = augment(*graph)
    if stranded:
        raise InfeasibleFlowError(
            f"{stranded} unit(s) of supply cannot reach a demand"
        )
    # An input arc's flow is its partner's residual capacity.
    return MinCostFlowResult(
        total_cost=total_cost,
        flow=arc_cap[1:2 * len(tails):2].copy(),
        augmentations=augmentations,
    )

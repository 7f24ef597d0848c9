"""Exact min-cost flow via successive shortest paths with potentials.

The solver repeatedly finds a cheapest residual path from a super-source
(connected to all remaining supplies) to a super-sink (connected from all
remaining demands) using Dijkstra on *reduced* costs, then augments by the
path bottleneck.  Node potentials keep reduced costs non-negative, so
Dijkstra stays valid after augmentation; with all-non-negative input costs
(true for the OPT caching graphs) the initial potentials are zero.

This is the same optimum as LEMON's network simplex used by the paper, just
a different exact algorithm that is short enough to implement and verify.

The augmentation loop exists twice: :func:`_augment_python` is the
reference (and the path taken without a C toolchain), ``ssp_augment`` in
:mod:`repro._native` runs the same algorithm over a CSR copy of the
residual graph flattened *in adjacency order*.  Everything but the
priority queue is a statement-by-statement transliteration; the queue is
``heapq`` with lazy deletion here and an indexed binary heap with
decrease-key there.  What is guaranteed is the outcome: the two are
bit-identical — flow, residual capacities, potentials, total cost, path
count — not merely both optimal.  The OPT graphs are massively degenerate
(every bypass arc of a ``cost == size`` trace costs 1.0/byte), so the
labels are whatever the tie-breaks say:

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
  whose capacities or supply do not convert to ``double`` exactly stays
  on the Python loop).

``tests/test_flow.py`` holds the two paths equal on generated networks,
heavily tied ones included, and shows that mutants of the C heap fail.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .. import _native
from .graph import FlowNetwork

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
        flow: flow on each forward arc, indexed by forward arc id.
        augmentations: number of augmenting-path iterations (diagnostic).
    """

    total_cost: float
    flow: dict[int, int]
    augmentations: int


def _initial_potentials(network: FlowNetwork, n_total: int) -> list[float]:
    """Bellman-Ford potentials; trivial when no usable arc has negative cost.

    Only arcs that can carry flow count: every residual partner holds the
    *negated* cost, so scanning all arcs would send any network with one
    positive-cost arc through Bellman-Ford to rediscover zeros.
    """
    if all(
        cost >= 0
        for cost, cap in zip(network.arc_cost, network.arc_cap)
        if cap > 0
    ):
        return [0.0] * n_total
    # Bellman-Ford from a virtual node connected to everything at cost 0.
    dist = [0.0] * n_total
    for _ in range(n_total - 1):
        changed = False
        for arc in range(len(network.arc_to)):
            if network.arc_cap[arc] <= 0:
                continue
            tail = network.arc_tail(arc)
            head = network.arc_to[arc]
            candidate = dist[tail] + network.arc_cost[arc]
            if candidate < dist[head] - 1e-12:
                dist[head] = candidate
                changed = True
        if not changed:
            break
    return dist


def _augment_python(
    network: FlowNetwork,
    potential: list[float],
    source: int,
    sink: int,
    remaining: int,
) -> tuple[float, int, int]:
    """Augment along cheapest residual paths until the supply is routed.

    Returns ``(total_cost, augmentations, stranded)``; ``stranded`` is the
    supply left when no residual path reaches the sink (0 = solved).
    Residual capacities are updated in place on ``network.arc_cap``.
    """
    arc_to = network.arc_to
    arc_cap = network.arc_cap
    arc_cost = network.arc_cost
    adjacency = network.adjacency
    n_total = network.n_nodes
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
            pot_u = potential[u]
            for arc in adjacency[u]:
                if arc_cap[arc] <= 0:
                    continue
                v = arc_to[arc]
                if visited[v]:
                    continue
                nd = d + arc_cost[arc] + pot_u - potential[v]
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
                potential[v] += dist[v]

        # Bottleneck along the path.
        bottleneck = remaining
        v = sink
        while v != source:
            arc = parent_arc[v]
            if arc_cap[arc] < bottleneck:
                bottleneck = arc_cap[arc]
            v = network.arc_tail(arc)

        # Augment.
        v = sink
        while v != source:
            arc = parent_arc[v]
            arc_cap[arc] -= bottleneck
            arc_cap[arc ^ 1] += bottleneck
            total_cost += bottleneck * arc_cost[arc]
            v = network.arc_tail(arc)
        remaining -= bottleneck
        augmentations += 1
    return total_cost, augmentations, remaining


def _augment_native(
    native: _native.Native,
    network: FlowNetwork,
    potential: list[float],
    source: int,
    sink: int,
    remaining: int,
) -> tuple[float, int, int] | None:
    """:func:`_augment_python` run by the C routine, same return value.

    Flattens the residual graph to CSR in adjacency order, runs
    ``ssp_augment`` and writes the residual capacities back into
    ``network.arc_cap`` and the final potentials into ``potential``.
    Returns ``None`` — nothing touched — when a capacity or the supply
    is too large for the routine's fixed-width arithmetic.  The routine
    allocates its scratch per call: a trainer thread and a foreground
    solve may be in here concurrently.
    """
    n_total = network.n_nodes
    adjacency = network.adjacency
    try:
        arc_cap = np.array(network.arc_cap, dtype=np.int64)
        arc_cost = np.array(network.arc_cost, dtype=np.float64)
    except OverflowError:
        return None
    n_arcs = len(arc_cap)
    if max(remaining, int(arc_cap.max(initial=0))) >= _NATIVE_CAPACITY_LIMIT:
        return None
    adj_start = np.zeros(n_total + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, adjacency), dtype=np.int64, count=n_total),
        out=adj_start[1:],
    )
    adj_arcs = np.fromiter(
        chain.from_iterable(adjacency), dtype=np.int64, count=n_arcs
    )
    arc_to = np.array(network.arc_to, dtype=np.int64)
    arc_tail = np.array(network._arc_tail, dtype=np.int64)
    pot = np.array(potential, dtype=np.float64)
    # `add_arc` keeps these consistent, but they are public lists all the
    # same; the routine's wrapper checks them again, and more.
    if not (
        len(arc_to) == len(arc_tail) == len(arc_cost) == n_arcs
        and int(adj_start[-1]) == n_arcs
        and len(pot) == n_total
        and _native.all_below(adj_arcs, n_arcs)
        and _native.all_below(arc_to, n_total)
        and _native.all_below(arc_tail, n_total)
    ):
        raise ValueError("flow network arc tables are inconsistent")
    stranded, total_cost, augmentations = native.ssp_augment(
        source, sink, adj_start, adj_arcs, arc_to, arc_tail, arc_cap,
        arc_cost, pot, remaining,
    )
    network.arc_cap[:] = arc_cap.tolist()
    potential[:] = pot.tolist()
    return total_cost, augmentations, stranded


def solve_min_cost_flow(network: FlowNetwork) -> MinCostFlowResult:
    """Route all supplies to demands at minimum cost.

    The ``network`` is modified in place (residual capacities encode the
    flow); call :meth:`FlowNetwork.arc_flow` or read the returned ``flow``
    mapping for per-arc flow values.

    Raises:
        InfeasibleFlowError: if supplies and demands are unbalanced or
            cannot be routed under the capacities.
    """
    if not network.is_balanced():
        raise InfeasibleFlowError(
            f"total supply {sum(network.supply)} != 0; instance unbalanced"
        )

    n = network.n_nodes
    source = n
    sink = n + 1
    n_total = n + 2
    first_virtual_arc = len(network.arc_to)
    supply_nodes: list[int] = []

    # Extend adjacency for the two virtual nodes without copying arc arrays.
    network.adjacency.append([])  # source
    network.adjacency.append([])  # sink
    network.n_nodes = n_total
    try:
        remaining = 0
        for node, supply in enumerate(network.supply):
            if supply > 0:
                network.add_arc(source, node, supply, 0.0)
                supply_nodes.append(node)
                remaining += supply
            elif supply < 0:
                network.add_arc(node, sink, -supply, 0.0)
                supply_nodes.append(node)

        potential = _initial_potentials(network, n_total)
        solved = None
        native = _native.load()
        if native is not None:
            solved = _augment_native(
                native, network, potential, source, sink, remaining
            )
        if solved is None:
            solved = _augment_python(
                network, potential, source, sink, remaining
            )
        total_cost, augmentations, stranded = solved
        if stranded:
            raise InfeasibleFlowError(
                f"{stranded} unit(s) of supply cannot reach a demand"
            )

        # Virtual arcs were appended after every real arc, so the forward
        # arcs below the first of them are exactly the caller's.
        flow = dict(zip(
            range(0, first_virtual_arc, 2),
            network.arc_cap[1:first_virtual_arc:2],
        ))
        return MinCostFlowResult(
            total_cost=total_cost, flow=flow, augmentations=augmentations
        )
    finally:
        # Strip the virtual source/sink arcs entirely, not just their
        # adjacency lists: their residual partners live in *real* nodes'
        # adjacency, and leaving them in ``arc_to``/``arc_cap``/``arc_cost``
        # with mutated capacities would feed stale, out-of-range arcs to a
        # later solve or ``_initial_potentials`` on the same network.  Each
        # real endpoint gained at most one virtual arc, appended after all
        # real arcs, so popping tails restores the exact input arc set
        # (with residual capacities on real arcs encoding the flow).
        for node in supply_nodes:
            adjacency = network.adjacency[node]
            while adjacency and adjacency[-1] >= first_virtual_arc:
                adjacency.pop()
        del network.arc_to[first_virtual_arc:]
        del network.arc_cap[first_virtual_arc:]
        del network.arc_cost[first_virtual_arc:]
        del network._arc_tail[first_virtual_arc:]
        network.adjacency = network.adjacency[:n]
        network.n_nodes = n

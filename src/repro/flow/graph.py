"""Flow network representation used by the min-cost flow solver.

Arcs are stored in a flat residual representation: every arc added via
:meth:`FlowNetwork.add_arc` creates a forward arc at an even index and its
reverse (zero-capacity, negated cost) at the following odd index, so that
``arc ^ 1`` is always the residual partner.  This keeps the solver free of
object overhead, which matters because the OPT graphs have one node per
request.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .._native import all_below

__all__ = ["FlowNetwork"]


class FlowNetwork:
    """A directed graph with arc capacities, costs, and node supplies.

    Supplies follow the usual min-cost-flow convention: positive supply means
    the node is a source of flow, negative means it demands flow.  The total
    supply over all nodes must be zero for a feasible instance.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("a flow network needs at least one node")
        self.n_nodes = n_nodes
        self.supply = [0] * n_nodes
        # Flat arc arrays; arc i and arc i^1 are residual partners.
        self.arc_to: list[int] = []
        self.arc_cap: list[int] = []
        self.arc_cost: list[float] = []
        self.adjacency: list[list[int]] = [[] for _ in range(n_nodes)]
        self._arc_tail: list[int] = []

    def add_arc(self, tail: int, head: int, capacity: int, cost: float) -> int:
        """Add a forward arc and its residual partner; return the arc index."""
        if not (0 <= tail < self.n_nodes and 0 <= head < self.n_nodes):
            raise IndexError("arc endpoint out of range")
        if capacity < 0:
            raise ValueError("arc capacity must be non-negative")
        index = len(self.arc_to)
        # forward arc
        self.arc_to.append(head)
        self.arc_cap.append(capacity)
        self.arc_cost.append(cost)
        self.adjacency[tail].append(index)
        self._arc_tail.append(tail)
        # residual arc
        self.arc_to.append(tail)
        self.arc_cap.append(0)
        self.arc_cost.append(-cost)
        self.adjacency[head].append(index + 1)
        self._arc_tail.append(head)
        return index

    def add_arcs(
        self,
        tails: np.ndarray,
        heads: np.ndarray,
        capacities: Sequence[int],
        costs: np.ndarray,
    ) -> int:
        """Add ``len(tails)`` arcs as if by :meth:`add_arc`, one after the
        other; return the first one's index (the rest follow at +2 each).

        Every list ends up exactly as the loop would leave it, adjacency
        order included: a node's list grows by its new arcs in index
        order, which is what a stable sort on the arcs' tails yields.
        """
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        costs = np.asarray(costs, dtype=np.float64)
        capacities = list(capacities)
        m = len(tails)
        if not len(heads) == len(capacities) == len(costs) == m:
            raise ValueError("arc columns differ in length")
        first = len(self.arc_to)
        if m == 0:
            return first
        ends = np.empty((m, 2), dtype=np.int64)
        ends[:, 0], ends[:, 1] = tails, heads
        if not all_below(ends, self.n_nodes):
            raise IndexError("arc endpoint out of range")
        if min(capacities) < 0:
            raise ValueError("arc capacity must be non-negative")
        owners = ends.ravel()  # arc 2i leaves tails[i], arc 2i + 1 heads[i]
        self._arc_tail.extend(owners.tolist())
        self.arc_to.extend(ends[:, ::-1].ravel().tolist())
        caps = [0] * (2 * m)
        caps[0::2] = capacities
        self.arc_cap.extend(caps)
        signed = np.empty((m, 2), dtype=np.float64)
        signed[:, 0], signed[:, 1] = costs, -costs
        self.arc_cost.extend(signed.ravel().tolist())
        order = np.argsort(owners, kind="stable")
        nodes, starts = np.unique(owners[order], return_index=True)
        arcs = (order + first).tolist()
        bounds = starts.tolist() + [2 * m]
        adjacency = self.adjacency
        for node, lo, hi in zip(nodes.tolist(), bounds, bounds[1:]):
            adjacency[node].extend(arcs[lo:hi])
        return first

    def add_supply(self, node: int, amount: int) -> None:
        """Add flow supply (positive) or demand (negative) at a node."""
        self.supply[node] += amount

    def arc_flow(self, arc: int) -> int:
        """Flow currently routed on a forward arc (its residual capacity)."""
        if arc % 2 != 0:
            raise ValueError("arc_flow expects a forward (even) arc index")
        return self.arc_cap[arc ^ 1]

    def arc_tail(self, arc: int) -> int:
        """Tail node of an arc."""
        return self._arc_tail[arc]

    @property
    def n_arcs(self) -> int:
        """Number of forward arcs."""
        return len(self.arc_to) // 2

    def forward_arcs(self) -> Iterator[int]:
        """Iterate over forward (even) arc indices."""
        return iter(range(0, len(self.arc_to), 2))

    def total_supply(self) -> int:
        """Sum of positive supplies (the amount of flow to be routed)."""
        return sum(s for s in self.supply if s > 0)

    def is_balanced(self) -> bool:
        """True when supplies and demands cancel out."""
        return sum(self.supply) == 0

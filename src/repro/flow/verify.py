"""Validation helpers for min-cost flow solutions.

Used heavily by the test suite: :func:`check_flow` asserts capacity and
conservation constraints on a solved instance, and
:func:`solve_with_networkx` provides an independent exact optimum (networkx
network simplex) to cross-check our solver on small instances.
"""

from __future__ import annotations

from .graph import FlowNetwork
from .ssp import MinCostFlowResult

__all__ = ["check_flow", "flow_cost", "solve_with_networkx"]


def flow_cost(network: FlowNetwork, flow: dict[int, int]) -> float:
    """Objective value of a given per-arc flow assignment."""
    return sum(network.arc_cost[arc] * units for arc, units in flow.items())


def check_flow(
    network: FlowNetwork,
    result: MinCostFlowResult,
    original_capacity: dict[int, int],
) -> None:
    """Assert that ``result.flow`` is feasible for the original instance.

    Args:
        network: the (solved, mutated) network.
        result: solver output.
        original_capacity: forward-arc capacities captured *before* solving,
            as ``{arc_index: capacity}``.

    Raises:
        AssertionError: on any capacity or conservation violation, or if the
            recomputed cost disagrees with the reported one.
    """
    balance = [0] * network.n_nodes
    for arc, units in result.flow.items():
        assert units >= 0, f"negative flow {units} on arc {arc}"
        cap = original_capacity[arc]
        assert units <= cap, f"arc {arc}: flow {units} exceeds capacity {cap}"
        tail = network.arc_tail(arc)
        head = network.arc_to[arc]
        balance[tail] -= units
        balance[head] += units
    for node in range(network.n_nodes):
        expected = -network.supply[node]
        assert balance[node] == expected, (
            f"node {node}: net inflow {balance[node]} != {expected} "
            "(conservation violated)"
        )
    recomputed = flow_cost(network, result.flow)
    assert abs(recomputed - result.total_cost) < 1e-6 * max(
        1.0, abs(result.total_cost)
    ), f"cost mismatch: reported {result.total_cost}, recomputed {recomputed}"


def solve_with_networkx(
    supplies: list[int],
    arcs: list[tuple[int, int, int, float]],
    cost_scale: int = 1_000_000,
) -> float:
    """Exact optimum via networkx network simplex, for cross-validation.

    Args:
        supplies: per-node supply (positive = source).
        arcs: ``(tail, head, capacity, cost)`` tuples.
        cost_scale: networkx requires integer costs; floats are scaled by
            this factor and the result scaled back.

    Returns:
        The minimum total cost.
    """
    # Imported here: the solver's importers should not pay for its
    # cross-check.
    import networkx as nx

    graph = nx.DiGraph()
    for node, supply in enumerate(supplies):
        # networkx uses "demand" = -supply.
        graph.add_node(node, demand=-supply)
    for tail, head, capacity, cost in arcs:
        scaled = int(round(cost * cost_scale))
        if graph.has_edge(tail, head):
            # networkx DiGraph cannot hold parallel edges; merge by adding a
            # relay node with the same capacity/cost split.
            relay = graph.number_of_nodes()
            graph.add_node(relay, demand=0)
            graph.add_edge(tail, relay, capacity=capacity, weight=scaled)
            graph.add_edge(relay, head, capacity=capacity, weight=0)
        else:
            graph.add_edge(tail, head, capacity=capacity, weight=scaled)
    cost, _ = nx.network_simplex(graph)
    return cost / cost_scale

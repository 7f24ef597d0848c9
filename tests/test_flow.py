"""Tests for the min-cost flow solver, including randomised
cross-validation against networkx's exact network simplex."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro import _native
from repro.flow import InfeasibleFlowError, solve_min_cost_flow
from repro.flow.ssp import _augment_python, _residual_graph


def flow_cost(costs, flow) -> float:
    """Objective value of a per-arc flow assignment."""
    return sum(float(cost) * units for cost, units in zip(costs, flow))


def check_flow(columns, result) -> None:
    """Assert that ``result.flow`` is feasible for the instance
    ``(tails, heads, capacities, costs, supply)`` and costs what the
    solver reported.

    Raises:
        AssertionError: on any capacity or conservation violation, or if
            the recomputed cost disagrees with the reported one.
    """
    tails, heads, capacities, costs, supply = columns
    flow = result.flow
    assert flow.dtype == np.int64 and flow.shape == (len(tails),)
    balance = [0] * len(supply)
    for arc, (tail, head, cap, units) in enumerate(
        zip(tails, heads, capacities, flow.tolist())
    ):
        assert units >= 0, f"negative flow {units} on arc {arc}"
        assert units <= cap, f"arc {arc}: flow {units} exceeds capacity {cap}"
        balance[tail] -= units
        balance[head] += units
    for node, amount in enumerate(supply):
        assert balance[node] == -amount, (
            f"node {node}: net inflow {balance[node]} != {-amount} "
            "(conservation violated)"
        )
    recomputed = flow_cost(costs, flow.tolist())
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
    """
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


def _columns(instance):
    """``(tails, heads, capacities, costs, supply)`` of an ``(n, arcs,
    supplies)`` instance, ``arcs`` as ``(tail, head, capacity, cost)``."""
    n, arcs, supplies = instance
    assert len(supplies) == n
    if not arcs:
        return [], [], [], [], list(supplies)
    return (*(list(column) for column in zip(*arcs)), list(supplies))


def _solve(n, arcs, supplies):
    return solve_min_cost_flow(*_columns((n, arcs, supplies)))


class TestSolver:
    def test_single_path(self):
        result = _solve(3, [(0, 1, 10, 1.0), (1, 2, 10, 2.0)], [4, 0, -4])
        assert result.total_cost == 4 * 3.0

    def test_prefers_cheap_path(self):
        result = _solve(
            4,
            [(0, 1, 10, 1.0), (1, 3, 10, 1.0), (0, 2, 10, 5.0),
             (2, 3, 10, 5.0)],
            [5, 0, 0, -5],
        )
        assert result.total_cost == 10.0
        assert result.flow.tolist() == [5, 5, 0, 0]  # one entry per arc

    def test_splits_when_capacity_binds(self):
        result = _solve(
            4,
            [(0, 1, 3, 1.0), (1, 3, 3, 1.0), (0, 2, 10, 5.0),
             (2, 3, 10, 5.0)],
            [5, 0, 0, -5],
        )
        assert result.total_cost == 3 * 2 + 2 * 10

    def test_multiple_sources_sinks(self):
        result = _solve(
            4,
            [(0, 2, 10, 1.0), (1, 3, 10, 1.0), (0, 3, 10, 3.0),
             (1, 2, 10, 3.0)],
            [2, 2, -2, -2],
        )
        assert result.total_cost == 4.0

    def test_unbalanced_rejected(self):
        with pytest.raises(InfeasibleFlowError):
            _solve(2, [(0, 1, 1, 0.0)], [2, 0])

    def test_insufficient_capacity_rejected(self):
        with pytest.raises(InfeasibleFlowError):
            _solve(2, [(0, 1, 1, 0.0)], [5, -5])

    def test_zero_supply_trivial(self):
        result = _solve(2, [(0, 1, 1, 1.0)], [0, 0])
        assert result.total_cost == 0.0
        assert result.augmentations == 0
        assert result.flow.tolist() == [0]

    def test_flow_feasibility_checked(self):
        instance = (3, [(0, 1, 10, 1.0), (1, 2, 10, 1.0)], [7, 0, -7])
        check_flow(_columns(instance), _solve(*instance))


class TestRandomisedCrossCheck:
    """Property test: our SSP optimum equals networkx network simplex."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        arcs = []
        for _ in range(int(rng.integers(8, 24))):
            u, v = rng.integers(0, n, size=2)
            if u == v:
                continue
            cap = int(rng.integers(1, 12))
            cost = float(rng.integers(0, 9))
            arcs.append((int(u), int(v), cap, cost))
        # Guarantee feasibility with an expensive bidirectional backbone.
        for i in range(n - 1):
            for tail, head in ((i, i + 1), (i + 1, i)):
                arcs.append((tail, head, 10_000, 99.0))
        supply = int(rng.integers(1, 20))
        src = int(rng.integers(0, n))
        dst = (src + 1 + int(rng.integers(0, n - 1))) % n
        supplies = [0] * n
        supplies[src] = supply
        supplies[dst] = -supply

        result = _solve(n, arcs, supplies)
        check_flow(_columns((n, arcs, supplies)), result)
        reference = solve_with_networkx(supplies, arcs)
        assert result.total_cost == pytest.approx(reference, abs=1e-6)


@pytest.fixture(params=["native", "python_fallback"])
def backend(request):
    request.getfixturevalue(request.param)


def _good_columns():
    """Two paths from node 0 to node 3, four units to route: the cheap
    one takes three, the dear one the fourth."""
    return [
        np.array([0, 1, 0, 2]), np.array([1, 3, 2, 3]),
        np.array([3, 3, 10, 10]), np.array([1.0, 1.0, 5.0, 5.0]),
        np.array([4, 0, 0, -4]),
    ]


def _edit(column, index, value):
    def edit(columns):
        columns[column] = columns[column].copy()
        if index is None:
            columns[column] = value
        else:
            columns[column][index] = value
    return edit


#: ``(edit of the good columns, error, message)``: every instance the
#: solver refuses at its entry, then the two it cannot route.
_REFUSALS = [
    pytest.param(_edit(1, None, np.array([1, 3, 2])), ValueError,
                 "arc columns differ in length", id="columns differ in length"),
    pytest.param(_edit(3, None, np.array([1.0])), ValueError,
                 "arc columns differ in length", id="costs differ in length"),
    pytest.param(_edit(1, 2, 4), ValueError, "arc endpoint out of range",
                 id="head past the last node"),
    pytest.param(_edit(0, 0, -1), ValueError, "arc endpoint out of range",
                 id="negative tail"),
    pytest.param(_edit(2, 1, -1), ValueError,
                 "arc capacity must be non-negative", id="negative capacity"),
    pytest.param(_edit(2, None, [3, 3, 2**70, 10]), ValueError,
                 "endpoints, capacities and supplies must be int64 integers",
                 id="capacity past int64"),
    pytest.param(_edit(2, None, np.array([3, 3, 2**63, 10], dtype=np.uint64)),
                 ValueError,
                 "endpoints, capacities and supplies must be int64 integers",
                 id="uint64 capacity past int64"),
    pytest.param(_edit(2, None, np.array([3.0, 3.0, 10.5, 10.0])), ValueError,
                 "endpoints, capacities and supplies must be int64 integers",
                 id="fractional capacity"),
    pytest.param(_edit(4, None, [4.0, 0.0, 0.0, -4.0]), ValueError,
                 "endpoints, capacities and supplies must be int64 integers",
                 id="float supply"),
    pytest.param(_edit(3, 2, -0.5), ValueError,
                 "arc costs must be finite and non-negative",
                 id="negative cost"),
    pytest.param(_edit(3, 2, np.nan), ValueError,
                 "arc costs must be finite and non-negative", id="NaN cost"),
    pytest.param(_edit(3, 2, np.inf), ValueError,
                 "arc costs must be finite and non-negative",
                 id="infinite cost"),
    pytest.param(lambda columns: columns.__setitem__(
        slice(None), [np.array([], dtype=np.int64)] * 4 + [np.array([])]
    ), ValueError, "a flow network needs at least one node", id="no nodes"),
    pytest.param(_edit(4, 3, -3), InfeasibleFlowError,
                 "total supply 1 != 0; instance unbalanced", id="unbalanced"),
    pytest.param(_edit(2, None, np.array([3, 3, 0, 10])), InfeasibleFlowError,
                 "1 unit(s) of supply cannot reach a demand",
                 id="supply stranded"),
]


class TestEntry:
    """What the solver refuses, on both backends, and that a solve —
    routed, refused or stranded — only reads the caller's columns."""

    def test_a_solve_leaves_its_columns_alone(self, backend):
        columns = _good_columns()
        kept = [column.copy() for column in columns]
        result = solve_min_cost_flow(*columns)
        assert (result.total_cost, result.flow.tolist()) == (16.0, [3, 3, 1, 1])
        for column, before in zip(columns, kept):
            assert column.tobytes() == before.tobytes()
        again = solve_min_cost_flow(*columns)
        assert again.flow.tolist() == result.flow.tolist()

    @pytest.mark.parametrize("edit, error, message", _REFUSALS)
    def test_a_refused_instance_leaves_its_columns_alone(
        self, backend, edit, error, message
    ):
        columns = _good_columns()
        edit(columns)
        kept = [np.array(column, copy=True) for column in columns]
        with pytest.raises(error) as caught:
            solve_min_cost_flow(*columns)
        assert type(caught.value) is error and str(caught.value) == message
        for column, before in zip(columns, kept):
            column = np.asarray(column)
            assert column.dtype == before.dtype
            assert column.tobytes() == before.tobytes()


def _chain_columns():
    """Four units from node 0 to node 2 over a two-arc chain."""
    return [0, 1], [1, 2], [10, 10], [1.0, 2.0], [4, 0, -4]


class TestFlowNetwork:
    """What the arc-at-a-time network builder checked and how it indexed
    arcs, now held by the columns the solver takes."""

    def test_arc_indexing(self):
        graph = _residual_graph([0, 1], [1, 2], [5, 3], [2.0, 1.0], [0, 0, 0])
        arc_to, arc_tail = graph[4].tolist(), graph[5].tolist()
        # Input arc i is residual arc 2i; 2i + 1 is its partner.
        assert arc_tail == [0, 1, 1, 2] and arc_to == [1, 0, 2, 1]
        assert graph[6].tolist() == [5, 0, 3, 0]
        result = solve_min_cost_flow([0, 1], [1, 2], [5, 3], [2.0, 1.0],
                                     [0, 0, 0])
        assert result.flow.dtype == np.int64 and result.flow.tolist() == [0, 0]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity must be non-negative"):
            solve_min_cost_flow([0], [1], [-1], [0.0], [0, 0])

    def test_add_arcs_rejects_what_add_arc_rejects(self):
        """Python lists and numpy columns are refused alike, and neither
        is changed by the refusal."""
        bad = [
            ([0, 1], [1, 3], [1, 1], [0.0, 0.0], "arc endpoint out of range"),
            ([-1], [1], [1], [0.0], "arc endpoint out of range"),
            ([0], [1], [-1], [0.0], "arc capacity must be non-negative"),
            ([0, 1], [1, 2], [1], [0.0, 0.0], "arc columns differ in length"),
        ]
        for *arcs, message in bad:
            for columns in (
                [list(column) for column in (*arcs, [0, 0, 0])],
                [np.array(column) for column in (*arcs, [0, 0, 0])],
            ):
                kept = [np.array(column, copy=True) for column in columns]
                with pytest.raises(ValueError) as caught:
                    solve_min_cost_flow(*columns)
                assert str(caught.value) == message
                for column, before in zip(columns, kept):
                    assert np.array_equal(column, before)
        empty = solve_min_cost_flow([], [], [], [], [0, 0, 0])
        assert empty.flow.tolist() == [] and empty.total_cost == 0.0


class TestSolverReentrancy:
    """A solve builds its residual graph afresh from the columns, so
    nothing of one solve reaches the caller or the next solve."""

    def test_virtual_arcs_stripped_after_solve(self):
        columns = _chain_columns()
        kept = [list(column) for column in columns]
        result = solve_min_cost_flow(*columns)
        assert [list(column) for column in columns] == kept
        # One flow entry per input arc: no super-source or sink arc.
        assert result.flow.tolist() == [4, 4]
        assert result.total_cost == 12.0

    def test_second_solve_sees_no_stale_arcs(self):
        columns = _chain_columns()
        first = solve_min_cost_flow(*columns)
        second = solve_min_cost_flow(*columns)
        assert first.total_cost == second.total_cost == 12.0
        assert first.flow.tolist() == second.flow.tolist() == [4, 4]
        assert first.augmentations == second.augmentations


class TestInitialPotentials:
    def test_negative_cost_dag_unchanged(self):
        """The negative-cost DAG Bellman-Ford once priced is refused, and
        left as it was; with its costs made non-negative the potentials
        start at zero."""
        tails, heads, capacities = [0, 1, 0, 2], [1, 2, 2, 3], [3, 3, 0, 3]
        costs, supply = [-2.0, 1.5, -9.0, -0.25], [3, 0, 0, -3]
        with pytest.raises(ValueError, match="finite and non-negative"):
            solve_min_cost_flow(tails, heads, capacities, costs, supply)
        assert costs == [-2.0, 1.5, -9.0, -0.25]
        graph = _residual_graph(
            tails, heads, capacities, [abs(c) for c in costs], supply
        )
        assert [p.hex() for p in graph[8].tolist()] == [0.0.hex()] * 6


#: Cost palettes.  Unit costs tie constantly, so which path wins is down
#: to the solver's tie-breaks (as in the OPT graphs); the decimal ones tie
#: on paper but round differently under a different association.
_PALETTES = st.sampled_from(
    [(0.0, 1.0), (0.1, 0.2, 0.3, 0.4, 0.7), (0.0, 1.0 / 3.0, 3.0)]
)


@st.composite
def _flow_instances(draw):
    """Small dense networks whose arcs all point forward (``tail < head``).
    Parallel and zero-capacity arcs included; demands sit downstream of
    their supplies and most instances get a roomy chain, so many route —
    over tied paths — while the rest strand some supply or are
    unbalanced."""
    n = draw(st.integers(3, 8))
    costs = st.sampled_from(draw(_PALETTES))
    pairs = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(
        lambda pair: pair[0] < pair[1]
    )
    arcs = [
        (tail, head, capacity, cost)
        for (tail, head), capacity, cost in draw(st.lists(
            st.tuples(pairs, st.integers(0, 3), costs),
            min_size=2 * n, max_size=4 * n,
        ))
    ]
    if draw(st.integers(0, 3)):
        chain_cost = draw(costs)
        arcs += [(i, i + 1, 12, chain_cost) for i in range(n - 1)]
    supplies = [0] * n
    for (tail, head), amount in draw(st.lists(
        st.tuples(pairs, st.integers(1, 4)), min_size=1, max_size=3
    )):
        supplies[tail] += amount
        supplies[head] -= amount
    if not draw(st.integers(0, 7)):
        supplies[draw(st.integers(0, n - 1))] += 1
    return n, arcs, supplies


#: Two supplies at distance 0 race for one free path: the node popped
#: first takes it, so any other order of equal heap keys changes the flow.
_TIED_SUPPLIES = (
    4,
    [(0, 3, 5, 1.0), (1, 3, 5, 1.0), (0, 2, 1, 0.0), (1, 2, 1, 0.0),
     (2, 3, 1, 0.0)],
    [2, 2, 0, -4],
)


def _outcome(columns):
    """What a solve returns, floats as bit patterns, or its error text."""
    try:
        result = solve_min_cost_flow(*columns)
    except InfeasibleFlowError as exc:
        return str(exc)
    return result.total_cost.hex(), result.flow.tolist(), result.augmentations


class TestNativeMatchesPython:
    """The C augmentation loop is a transliteration: same cost bits, same
    flow, same path count, same error text."""

    @given(_flow_instances())
    @example(_TIED_SUPPLIES)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_generated_networks(self, native, instance):
        columns = _columns(instance)
        found = _outcome(columns)
        with mock.patch.object(_native, "_state", False):
            expected = _outcome(columns)
        assert found == expected
        if not isinstance(found, str):
            check_flow(columns, solve_min_cost_flow(*columns))

    def test_oversized_capacity_takes_the_python_loop(self):
        """From 2**53 a capacity or supply no longer converts to double
        exactly."""

        class Unreachable:
            def ssp_augment(self, *args):
                raise AssertionError("fixed-width routine got a big integer")

        for capacity, units in ((2**53, 3), (2**62, 2**53)):
            with mock.patch.object(_native, "load", return_value=Unreachable()):
                result = solve_min_cost_flow(
                    [0], [1], [capacity], [1.0], [units, -units]
                )
            assert result.total_cost == float(units)
            assert result.flow.tolist() == [units]


#: Few distinct costs: distances tie constantly, so the finishing order is
#: whatever the heap's (dist, node) order says.
_TIED_PALETTES = st.sampled_from(
    [(1.0,), (0.0,), (0.0, 1.0), (1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 2.0)]
)


@st.composite
def _tied_instances(draw):
    """Balanced networks with arcs in both directions (non-negative
    costs, so cycles cost zero at best), duplicated parallel arcs and
    capacities small enough that a solve takes many paths through the
    reverse arcs of earlier ones."""
    n = draw(st.integers(4, 10))
    costs = st.sampled_from(draw(_TIED_PALETTES))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda pair: pair[0] != pair[1]
    )
    arcs = [
        (tail, head, capacity, cost)
        for (tail, head), capacity, cost in draw(st.lists(
            st.tuples(pairs, st.integers(1, 3), costs),
            min_size=2 * n, max_size=5 * n,
        ))
    ]
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=n))
    supplies = [0] * n
    for (tail, head), amount in draw(st.lists(
        st.tuples(pairs, st.integers(1, 4)), min_size=1, max_size=4
    )):
        supplies[tail] += amount
        supplies[head] -= amount
    return n, arcs, supplies


def _residual_by_add_arc(instance):
    """The residual graph as it was built one ``add_arc`` at a time: the
    input arcs, then a super-source or super-sink arc per node with a
    supply, in node order; each arc appended with its partner, each
    node's adjacency grown in arc order."""
    n, arcs, supplies = instance
    source, sink = n, n + 1
    arcs = list(arcs) + [
        (source, node, amount, 0.0) if amount > 0 else (node, sink, -amount, 0.0)
        for node, amount in enumerate(supplies) if amount
    ]
    arc_to, arc_tail, arc_cap, arc_cost = [], [], [], []
    adjacency = [[] for _ in range(n + 2)]
    for tail, head, capacity, cost in arcs:
        for u, v, cap, c in ((tail, head, capacity, cost), (head, tail, 0, -cost)):
            adjacency[u].append(len(arc_to))
            arc_to.append(v)
            arc_tail.append(u)
            arc_cap.append(cap)
            arc_cost.append(c.hex())
    adj_start = [0]
    for arcs_out in adjacency:
        adj_start.append(adj_start[-1] + len(arcs_out))
    return (
        source, sink, adj_start, sum(adjacency, []), arc_to, arc_tail,
        arc_cap, arc_cost, [0.0.hex()] * (n + 2),
        sum(amount for amount in supplies if amount > 0),
    )


@given(st.one_of(
    _tied_instances(),
    _flow_instances().filter(lambda instance: sum(instance[2]) == 0),
))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_residual_graph_equals_the_add_arc_loop(instance):
    """Arc order and adjacency order break the solver's ties, so the
    arrays the augmentation loops take are held to the loop that built
    them one arc at a time — element for element, costs as bit patterns
    (a zero cost's partner is -0.0)."""
    graph = _residual_graph(*_columns(instance))
    found = []
    for value in graph:
        if isinstance(value, np.ndarray):
            assert value.dtype in (np.int64, np.float64)
            assert value.flags.c_contiguous and value.flags.writeable
            value = value.tolist()
            if value and isinstance(value[0], float):
                value = [v.hex() for v in value]
        found.append(value)
    assert tuple(found) == _residual_by_add_arc(instance)


#: Node 3 is relaxed three times (9, then 6, then 3) before it is popped:
#: each relaxation moves it up the heap from the slot it is in.
_RELAXED_THRICE = (
    4,
    [(0, 3, 2, 9.0), (0, 1, 2, 1.0), (0, 2, 2, 2.0), (1, 3, 1, 5.0),
     (2, 3, 1, 1.0)],
    [3, 0, 0, -3],
)

#: Node 2 is reached at 1e-12, then offered 0.0: `0.0 < 1e-12 - 1e-12` is
#: false, so the first path stands; under `<=` the second would win.
_TOLERANCE_EDGE = (
    3,
    [(0, 2, 1, 1e-12), (0, 1, 1, 0.0), (1, 2, 1, 0.0)],
    [1, 0, -1],
)


def _augmented(instance, native):
    """What one augmentation loop leaves behind on ``instance`` — cost
    and potentials as bit patterns, path count, stranded supply, residual
    capacities (the flow is their odd entries) — by the C routine behind
    ``native``, or by the Python loop when ``native`` is None."""
    graph = _residual_graph(*_columns(instance))
    augment = _augment_python if native is None else native.ssp_augment
    stranded, total_cost, augmentations = augment(*graph)
    arc_cap, potential = graph[6], graph[8]
    return (
        total_cost.hex(), augmentations, stranded, arc_cap.tolist(),
        [p.hex() for p in potential.tolist()],
    )


def _run_tied_leg(handle, phases=tuple(Phase)):
    @given(_tied_instances())
    @example(_TIED_SUPPLIES)
    @example(_RELAXED_THRICE)
    @example(_TOLERANCE_EDGE)
    @settings(
        max_examples=300, deadline=None, derandomize=True,
        report_multiple_bugs=False, phases=phases,
    )
    def leg(instance):
        assert _augmented(instance, handle) == _augmented(instance, None)

    leg()


#: Source edits that each break the order argument: (what, old, new).
_HEAP_MUTANTS = [
    pytest.param(
        "((da) < (db) || ((da) == (db) && (ua) < (ub)))", "((da) < (db))",
        id="HEAP_LESS without the node tie-break",
    ),
    pytest.param(
        "                        heap[p] = hu;\n"
        "                        pos[hu] = p;\n",
        "                        heap[p] = hu;\n",
        id="decrease-key forgets pos",
    ),
    pytest.param(
        "int64_t p = pos[v];\n"
        "                    if (p < 0)\n"
        "                        p = size++;\n",
        "int64_t p = pos[v] < 0 ? size++ : size ? size - 1 : 0;\n",
        id="sift-up from the heap's end",
    ),
    pytest.param(
        "if (nd < dist[v] - 1e-12) {", "if (nd <= dist[v] - 1e-12) {",
        id="<= in the relaxation test",
    ),
]


class TestIndexedHeapOrder:
    """The C heap is indexed (decrease-key) where the Python loop pushes
    duplicates and skips stale pops; what makes them finish nodes in one
    order is the total order on (dist, node).  Heavy ties put that order
    to work, and each mutant of it must be caught."""

    def test_tied_networks(self, native):
        _run_tied_leg(_native.load())

    @pytest.mark.parametrize("old, new", _HEAP_MUTANTS)
    def test_mutants_are_caught(self, native, monkeypatch, tmp_path, old, new):
        # Each mutant keeps every heap index inside [0, size) and pushes a
        # node at most once, so a wrong answer is all it can produce.
        assert _native._SOURCE.count(old) == 1
        monkeypatch.setattr(
            _native, "_SOURCE", _native._SOURCE.replace(old, new)
        )
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        mutant = _native._build()  # uncached: no mutant object outlives it
        assert isinstance(mutant, _native.Native)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(AssertionError):
            # The first counterexample will do: no shrinking.
            _run_tied_leg(mutant, phases=(Phase.explicit, Phase.generate))

"""Tests for the min-cost flow substrate, including randomised
cross-validation against networkx's exact network simplex."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro import _native
from repro.flow import (
    FlowNetwork,
    InfeasibleFlowError,
    check_flow,
    solve_min_cost_flow,
    solve_with_networkx,
)
from repro.flow.ssp import (
    _augment_native,
    _augment_python,
    _initial_potentials,
)


def _snapshot_capacities(net: FlowNetwork) -> dict[int, int]:
    return {arc: net.arc_cap[arc] for arc in net.forward_arcs()}


class TestFlowNetwork:
    def test_arc_indexing(self):
        net = FlowNetwork(3)
        a = net.add_arc(0, 1, 5, 2.0)
        b = net.add_arc(1, 2, 3, 1.0)
        assert a == 0 and b == 2  # forward arcs at even indices
        assert net.n_arcs == 2
        assert net.arc_tail(a) == 0
        assert net.arc_to[a] == 1

    def test_supply_balance(self):
        net = FlowNetwork(2)
        net.add_supply(0, 5)
        assert not net.is_balanced()
        net.add_supply(1, -5)
        assert net.is_balanced()
        assert net.total_supply() == 5

    def test_invalid_node_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(IndexError):
            net.add_arc(0, 5, 1, 0.0)

    def test_negative_capacity_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            net.add_arc(0, 1, -1, 0.0)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork(0)

    def test_add_arcs_rejects_what_add_arc_rejects(self):
        net = FlowNetwork(3)
        with pytest.raises(IndexError):
            net.add_arcs([0, 1], [1, 3], [1, 1], [0.0, 0.0])
        with pytest.raises(IndexError):
            net.add_arcs([-1], [1], [1], [0.0])
        with pytest.raises(ValueError):
            net.add_arcs([0], [1], [-1], [0.0])
        with pytest.raises(ValueError):
            net.add_arcs([0, 1], [1, 2], [1], [0.0, 0.0])
        assert net.arc_to == [] and net.adjacency == [[], [], []]
        assert net.add_arcs([], [], [], []) == 0


def _network_lists(net):
    """Every list a FlowNetwork exposes, floats as bit patterns (the
    reverse of a zero-cost arc costs -0.0)."""
    return (
        net.n_nodes, net.arc_to, net._arc_tail, net.arc_cap,
        [cost.hex() for cost in net.arc_cost], net.adjacency, net.supply,
    )


class TestSolver:
    def test_single_path(self):
        net = FlowNetwork(3)
        net.add_arc(0, 1, 10, 1.0)
        net.add_arc(1, 2, 10, 2.0)
        net.add_supply(0, 4)
        net.add_supply(2, -4)
        result = solve_min_cost_flow(net)
        assert result.total_cost == 4 * 3.0

    def test_prefers_cheap_path(self):
        net = FlowNetwork(4)
        cheap = net.add_arc(0, 1, 10, 1.0)
        net.add_arc(1, 3, 10, 1.0)
        expensive = net.add_arc(0, 2, 10, 5.0)
        net.add_arc(2, 3, 10, 5.0)
        net.add_supply(0, 5)
        net.add_supply(3, -5)
        result = solve_min_cost_flow(net)
        assert result.total_cost == 10.0
        assert result.flow[cheap] == 5
        assert result.flow[expensive] == 0

    def test_splits_when_capacity_binds(self):
        net = FlowNetwork(4)
        net.add_arc(0, 1, 3, 1.0)
        net.add_arc(1, 3, 3, 1.0)
        net.add_arc(0, 2, 10, 5.0)
        net.add_arc(2, 3, 10, 5.0)
        net.add_supply(0, 5)
        net.add_supply(3, -5)
        result = solve_min_cost_flow(net)
        assert result.total_cost == 3 * 2 + 2 * 10

    def test_multiple_sources_sinks(self):
        net = FlowNetwork(4)
        net.add_arc(0, 2, 10, 1.0)
        net.add_arc(1, 3, 10, 1.0)
        net.add_arc(0, 3, 10, 3.0)
        net.add_arc(1, 2, 10, 3.0)
        net.add_supply(0, 2)
        net.add_supply(1, 2)
        net.add_supply(2, -2)
        net.add_supply(3, -2)
        result = solve_min_cost_flow(net)
        assert result.total_cost == 4.0

    def test_unbalanced_rejected(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, 1, 0.0)
        net.add_supply(0, 2)
        with pytest.raises(InfeasibleFlowError):
            solve_min_cost_flow(net)

    def test_insufficient_capacity_rejected(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, 1, 0.0)
        net.add_supply(0, 5)
        net.add_supply(1, -5)
        with pytest.raises(InfeasibleFlowError):
            solve_min_cost_flow(net)

    def test_zero_supply_trivial(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, 1, 1.0)
        result = solve_min_cost_flow(net)
        assert result.total_cost == 0.0
        assert result.augmentations == 0

    def test_flow_feasibility_checked(self):
        net = FlowNetwork(3)
        net.add_arc(0, 1, 10, 1.0)
        net.add_arc(1, 2, 10, 1.0)
        net.add_supply(0, 7)
        net.add_supply(2, -7)
        caps = _snapshot_capacities(net)
        result = solve_min_cost_flow(net)
        check_flow(net, result, caps)


class TestRandomisedCrossCheck:
    """Property test: our SSP optimum equals networkx network simplex."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        net = FlowNetwork(n)
        arcs = []
        for _ in range(int(rng.integers(8, 24))):
            u, v = rng.integers(0, n, size=2)
            if u == v:
                continue
            cap = int(rng.integers(1, 12))
            cost = float(rng.integers(0, 9))
            net.add_arc(int(u), int(v), cap, cost)
            arcs.append((int(u), int(v), cap, cost))
        # Guarantee feasibility with an expensive bidirectional backbone.
        for i in range(n - 1):
            for tail, head in ((i, i + 1), (i + 1, i)):
                net.add_arc(tail, head, 10_000, 99.0)
                arcs.append((tail, head, 10_000, 99.0))
        supply = int(rng.integers(1, 20))
        src = int(rng.integers(0, n))
        dst = (src + 1 + int(rng.integers(0, n - 1))) % n
        net.add_supply(src, supply)
        net.add_supply(dst, -supply)
        supplies = [0] * n
        supplies[src] = supply
        supplies[dst] = -supply

        caps = _snapshot_capacities(net)
        result = solve_min_cost_flow(net)
        check_flow(net, result, caps)
        reference = solve_with_networkx(supplies, arcs)
        assert result.total_cost == pytest.approx(reference, abs=1e-6)


class TestSolverReentrancy:
    """The solver must leave the caller's network structurally intact:
    virtual source/sink arcs are stripped on exit (regression: their
    residual partners lingered in real nodes' adjacency with mutated
    capacities, corrupting any later pass over the same network)."""

    def _chain(self):
        net = FlowNetwork(3)
        net.add_arc(0, 1, 10, 1.0)
        net.add_arc(1, 2, 10, 2.0)
        net.add_supply(0, 4)
        net.add_supply(2, -4)
        return net

    def test_virtual_arcs_stripped_after_solve(self):
        net = self._chain()
        n_arcs = len(net.arc_to)
        adjacency = [list(a) for a in net.adjacency]
        solve_min_cost_flow(net)
        assert len(net.arc_to) == n_arcs
        assert len(net.arc_cap) == n_arcs
        assert len(net.arc_cost) == n_arcs
        assert len(net._arc_tail) == n_arcs
        assert net.n_nodes == 3
        assert [list(a) for a in net.adjacency] == adjacency
        # The flow itself stays encoded in the real arcs' residuals.
        assert net.arc_flow(0) == 4 and net.arc_flow(2) == 4

    def test_virtual_arcs_stripped_after_infeasible(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, 1, 1.0)
        net.add_supply(0, 5)
        net.add_supply(1, -5)
        n_arcs = len(net.arc_to)
        with pytest.raises(InfeasibleFlowError):
            solve_min_cost_flow(net)
        assert len(net.arc_to) == n_arcs
        assert net.n_nodes == 2
        assert all(a < n_arcs for adj in net.adjacency for a in adj)

    def test_second_solve_sees_no_stale_arcs(self):
        net = self._chain()
        first = solve_min_cost_flow(net)
        assert first.total_cost == pytest.approx(12.0)
        # Supplies are untouched, so a second solve routes 4 more units
        # through the residual graph — exercising every arc iteration that
        # previously hit the stale virtual arcs.
        second = solve_min_cost_flow(net)
        assert second.total_cost == pytest.approx(12.0)
        assert net.arc_flow(0) == 8 and net.arc_flow(2) == 8


def _reference_initial_potentials(network, n_total):
    """`_initial_potentials` before its fast path looked at capacities:
    any negative cost — every residual partner of a positive-cost arc —
    sent it through Bellman-Ford."""
    if all(c >= 0 for c in network.arc_cost):
        return [0.0] * n_total
    dist = [0.0] * n_total
    for _ in range(n_total - 1):
        changed = False
        for arc in range(len(network.arc_to)):
            if network.arc_cap[arc] <= 0:
                continue
            candidate = dist[network.arc_tail(arc)] + network.arc_cost[arc]
            if candidate < dist[network.arc_to[arc]] - 1e-12:
                dist[network.arc_to[arc]] = candidate
                changed = True
        if not changed:
            break
    return dist


class TestInitialPotentials:
    def test_zero_without_bellman_ford_on_non_negative_costs(self):
        net = FlowNetwork(3)
        net.add_arc(0, 1, 5, 2.0)
        net.add_arc(1, 2, 5, 0.0)

        class NoTails(list):
            def __getitem__(self, index):
                raise AssertionError("Bellman-Ford ran on non-negative costs")

        net._arc_tail = NoTails(net._arc_tail)
        assert _initial_potentials(net, 3) == [0.0, 0.0, 0.0]

    def test_negative_cost_dag_unchanged(self):
        net = FlowNetwork(4)
        net.add_arc(0, 1, 3, -2.0)
        net.add_arc(1, 2, 3, 1.5)
        net.add_arc(0, 2, 0, -9.0)  # no capacity: must not count
        net.add_arc(2, 3, 3, -0.25)
        expected = _reference_initial_potentials(net, 4)
        assert expected == [0.0, -2.0, -0.5, -0.75]
        assert _initial_potentials(net, 4) == expected

    def test_augmented_network_still_runs_bellman_ford(self):
        """After a solve the residual partners of the used arcs have
        capacity *and* negative cost."""
        net = FlowNetwork(3)
        net.add_arc(0, 1, 10, 1.0)
        net.add_arc(1, 2, 10, 2.0)
        net.add_supply(0, 4)
        net.add_supply(2, -4)
        solve_min_cost_flow(net)
        expected = _reference_initial_potentials(net, 3)
        assert expected == [-3.0, -2.0, 0.0]
        assert _initial_potentials(net, 3) == expected


#: Cost palettes.  Unit costs tie constantly, so which path wins is down
#: to the solver's tie-breaks (as in the OPT graphs); the decimal ones tie
#: on paper but round differently under a different association.
_PALETTES = st.sampled_from(
    [(0.0, 1.0), (0.1, 0.2, 0.3, 0.4, 0.7), (-2.0, -0.5, 0.0, 1.0 / 3.0, 3.0)]
)


@st.composite
def _flow_instances(draw):
    """Small dense networks whose arcs all point forward (``tail < head``),
    so negative costs cannot form a cycle.  Parallel and zero-capacity
    arcs included; demands sit downstream of their supplies and most
    instances get a roomy chain, so many route — over tied paths — while
    the rest strand some supply or are unbalanced."""
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


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_add_arcs_equals_the_add_arc_loop(data):
    """In every list, adjacency order included — whether the arcs go in
    as one bulk call, several, or mixed with single adds."""
    n, arcs, _ = data.draw(_flow_instances())
    cut = data.draw(st.integers(0, len(arcs)))
    looped, bulk = FlowNetwork(n), FlowNetwork(n)
    for arc in arcs:
        looped.add_arc(*arc)
    first = None
    for part in (arcs[:cut], arcs[cut:]):
        if len(part) == 1:
            bulk.add_arc(*part[0])
        elif part:
            tails, heads, capacities, costs = zip(*part)
            index = bulk.add_arcs(
                np.array(tails), np.array(heads), capacities, np.array(costs)
            )
            first = index if first is None else first
    assert _network_lists(bulk) == _network_lists(looped)
    assert first in (None, 0, 2)
    assert all(type(cap) is int for cap in bulk.arc_cap)


def _build(instance):
    n, arcs, supplies = instance
    net = FlowNetwork(n)
    for arc in arcs:
        net.add_arc(*arc)
    for node, amount in enumerate(supplies):
        net.add_supply(node, amount)
    return net


def _outcome(net):
    """Everything a solve leaves behind, floats as bit patterns."""
    try:
        result = solve_min_cost_flow(net)
        outcome = (result.total_cost.hex(), result.flow, result.augmentations)
    except InfeasibleFlowError as exc:
        outcome = str(exc)
    return outcome, list(net.arc_cap), [list(a) for a in net.adjacency]


class TestNativeMatchesPython:
    """The C augmentation loop is a transliteration: same cost bits, same
    flow, same path count, same residual capacities, same error text."""

    @given(_flow_instances())
    @example(_TIED_SUPPLIES)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_generated_networks(self, native, instance):
        fast, slow = _build(instance), _build(instance)
        capacities = _snapshot_capacities(fast)
        for attempt in ("first solve", "second solve on the residual"):
            found = _outcome(fast)
            with mock.patch.object(_native, "_state", False):
                expected = _outcome(slow)
            assert found == expected, attempt
        # (the second solve re-routes the supply, so only the first
        # is a flow of the original instance)
        verified = _build(instance)
        try:
            result = solve_min_cost_flow(verified)
        except InfeasibleFlowError:
            return
        check_flow(verified, result, capacities)

    def test_oversized_capacity_takes_the_python_loop(self):
        """Beyond 2**53 a capacity no longer converts to double exactly
        (and 2**70 does not fit int64 at all)."""

        class Unreachable:
            def ssp_augment(self, *args):
                raise AssertionError("fixed-width routine got a big integer")

        for capacity in (2**53, 2**70):
            net = FlowNetwork(2)
            net.add_arc(0, 1, capacity, 1.0)
            net.add_supply(0, 3)
            net.add_supply(1, -3)
            with mock.patch.object(_native, "load", return_value=Unreachable()):
                result = solve_min_cost_flow(net)
            assert result.total_cost == 3.0
            assert net.arc_cap == [capacity - 3, 3]


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
    net = _build(instance)
    source, sink = net.n_nodes, net.n_nodes + 1
    net.adjacency += [[], []]
    net.n_nodes += 2
    remaining = 0
    for node, supply in enumerate(net.supply):
        if supply > 0:
            net.add_arc(source, node, supply, 0.0)
            remaining += supply
        elif supply < 0:
            net.add_arc(node, sink, -supply, 0.0)
    potential = _initial_potentials(net, net.n_nodes)
    if native is None:
        solved = _augment_python(net, potential, source, sink, remaining)
    else:
        solved = _augment_native(
            native, net, potential, source, sink, remaining
        )
    total_cost, augmentations, stranded = solved
    return (
        total_cost.hex(), augmentations, stranded, net.arc_cap,
        [p.hex() for p in potential],
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

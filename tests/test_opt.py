"""Tests for the OPT computation (min-cost flow encoding and extraction)."""

from dataclasses import fields
from hashlib import blake2b
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.flow import solve_min_cost_flow
from repro.opt import (
    OptResult,
    belady_unit_size,
    build_opt_network,
    opt_hit_ratios,
    solve_opt,
    solve_pruned,
    solve_segmented,
)
from repro.trace import Request, Trace


class TestBuildNetwork:
    def test_paper_figure4_structure(self, paper_trace):
        tails, heads, _, _, _ = build_opt_network(paper_trace, cache_size=3)
        # 11 central arcs, then one bypass per request with a next
        # occurrence, in trace order.
        nxt = paper_trace.next_occurrence()
        opens = [i for i in range(12) if nxt[i] >= 0]
        assert len(tails) == len(heads) == 11 + len(opens)
        assert tails[:11].tolist() == list(range(11))
        assert heads[:11].tolist() == list(range(1, 12))
        assert tails[11:].tolist() == opens
        assert heads[11:].tolist() == [int(nxt[i]) for i in opens]

    def test_supplies_at_first_and_last(self, paper_trace):
        *_, supply = build_opt_network(paper_trace, cache_size=3)
        # a: first at 0 (+3), last at 11 (-3); b: 1 (+1), 10 (-1);
        # c: 2 (+1), 6 (-1); d: 4 (+2), 7 (-2).
        assert supply[0] == 3 and supply[11] == -3
        assert supply[1] == 1 and supply[10] == -1
        assert supply[2] == 1 and supply[6] == -1
        assert supply[4] == 2 and supply[7] == -2
        assert supply.sum() == 0

    def test_single_request_object_has_no_supply(self):
        t = Trace([Request(0, 1, 5), Request(1, 2, 3)])
        tails, heads, _, _, supply = build_opt_network(t, cache_size=10)
        assert supply.tolist() == [0, 0]
        assert (tails.tolist(), heads.tolist()) == ([0], [1])  # chain only

    def test_invalid_inputs(self, paper_trace):
        with pytest.raises(ValueError):
            build_opt_network(paper_trace, cache_size=0)
        with pytest.raises(ValueError):  # a capacity int64 cannot hold
            build_opt_network(paper_trace, cache_size=2**63)
        with pytest.raises(ValueError):
            build_opt_network(Trace(), cache_size=5)


def _build_opt_network_arc_by_arc(trace: Trace, cache_size: int):
    """`build_opt_network` as the per-arc / per-node loops it was before
    it built its columns with numpy: the oracle of arc order and every
    float."""
    n = len(trace)
    sizes, costs = trace.sizes, trace.costs
    nxt, prv = trace.next_occurrence(), trace.prev_occurrence()
    arcs = [(i, i + 1, cache_size, 0.0) for i in range(n - 1)]
    for i in range(n):
        if nxt[i] >= 0:
            size = int(sizes[i])
            arcs.append((i, int(nxt[i]), size, float(costs[i]) / size))
    supply = [0] * n
    for i in range(n):
        if prv[i] < 0 <= nxt[i]:
            supply[i] += int(sizes[i])
        elif nxt[i] < 0 <= prv[i]:
            supply[i] -= int(sizes[i])
    tails, heads, capacities, arc_costs = (list(c) for c in zip(*arcs))
    return tails, heads, capacities, arc_costs, supply


@pytest.mark.parametrize("lognormal_costs", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_array_built_network_equals_arc_by_arc(seed, lognormal_costs):
    trace = _generated_trace(seed, lognormal_costs)
    cache_size = 2**62 if seed == 3 else 150
    found = build_opt_network(trace, cache_size)
    tails, heads, capacities, costs, supply = _build_opt_network_arc_by_arc(
        trace, cache_size
    )
    for name, column, expected in (
        ("tails", found[0], tails), ("heads", found[1], heads),
        ("capacities", found[2], capacities), ("supply", found[4], supply),
    ):
        assert column.dtype == np.int64, name
        assert column.tolist() == expected, name
    assert found[3].dtype == np.float64
    assert [c.hex() for c in found[3].tolist()] == [c.hex() for c in costs]


def test_single_request_network():
    columns = build_opt_network(Trace([Request(0, 1, 5)]), cache_size=9)
    assert [c.tolist() for c in columns] == [[], [], [], [], [0]]


class TestSolveOpt:
    def test_decisions_false_for_non_recurring(self, paper_trace):
        result = solve_opt(paper_trace, cache_size=4)
        nxt = paper_trace.next_occurrence()
        for i in range(len(paper_trace)):
            if nxt[i] < 0:
                assert not result.decisions[i]

    def test_tiny_cache_caches_small_objects_only(self, paper_trace):
        # Cache of 1 byte can only ever hold b or c (size 1).
        result = solve_opt(paper_trace, cache_size=1)
        sizes = paper_trace.sizes
        for i in range(len(paper_trace)):
            if result.decisions[i]:
                assert sizes[i] == 1

    def test_huge_cache_caches_everything_recurring(self, paper_trace):
        result = solve_opt(paper_trace, cache_size=100)
        nxt = paper_trace.next_occurrence()
        for i in range(len(paper_trace)):
            assert result.decisions[i] == (nxt[i] >= 0)

    def test_huge_cache_only_compulsory_misses(self, paper_trace):
        result = solve_opt(paper_trace, cache_size=100)
        # Only the 4 first requests miss: costs 3 + 1 + 1 + 2.
        assert result.miss_cost == 7.0
        assert result.flow_cost == 0.0

    def test_miss_cost_monotone_in_cache_size(self, small_zipf_trace):
        costs = [
            solve_opt(small_zipf_trace, cache_size=c).miss_cost
            for c in (50, 200, 1000, 5000)
        ]
        assert costs == sorted(costs, reverse=True)

    def test_hit_bytes_bounded_by_size(self, small_zipf_trace):
        result = solve_opt(small_zipf_trace, cache_size=500)
        assert (result.hit_bytes <= small_zipf_trace.sizes).all()
        assert (result.hit_bytes >= 0).all()

    def test_first_requests_never_hit(self, small_zipf_trace):
        result = solve_opt(small_zipf_trace, cache_size=500)
        prv = small_zipf_trace.prev_occurrence()
        assert (result.hit_bytes[prv < 0] == 0).all()

    def test_cached_fraction_matches_decisions(self, small_zipf_trace):
        result = solve_opt(small_zipf_trace, cache_size=500)
        assert (result.decisions == (result.cached_fraction >= 1.0)).all()

    def test_cost_accounting_identity(self, paper_trace):
        """miss_cost == total cost - hit value (for cost == size)."""
        result = solve_opt(paper_trace, cache_size=4)
        total_bytes = paper_trace.total_bytes()
        assert result.miss_cost == total_bytes - result.hit_bytes.sum()


class TestOptHitRatios:
    def test_bhr_in_unit_interval(self, small_zipf_trace):
        result = solve_opt(small_zipf_trace, cache_size=400)
        bhr, ohr = opt_hit_ratios(small_zipf_trace, result)
        assert 0.0 <= bhr <= 1.0
        assert 0.0 <= ohr <= 1.0

    def test_huge_cache_hits_everything_recurring(self, paper_trace):
        result = solve_opt(paper_trace, cache_size=100)
        bhr, ohr = opt_hit_ratios(paper_trace, result)
        # 8 of 12 requests are re-requests; they all hit.
        assert ohr == pytest.approx(8 / 12)


class TestBeladyEquivalence:
    """MCF OPT and Belady-with-bypass are both optimal for unit sizes."""

    def test_fixture_trace(self, unit_size_trace):
        for slots in (3, 8, 20):
            mcf = solve_opt(unit_size_trace, cache_size=slots)
            bel = belady_unit_size(unit_size_trace, cache_slots=slots)
            assert int((mcf.hit_bytes == 1).sum()) == bel.n_hits

    @given(st.integers(0, 10_000), st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_random_traces(self, seed, slots):
        rng = np.random.default_rng(seed)
        objs = rng.integers(0, 15, size=200)
        trace = Trace(
            [Request(i, int(o), 1, 1.0) for i, o in enumerate(objs)]
        )
        mcf = solve_opt(trace, cache_size=slots)
        bel = belady_unit_size(trace, cache_slots=slots)
        assert int((mcf.hit_bytes == 1).sum()) == bel.n_hits


class TestBeladyValidation:
    def test_requires_unit_sizes(self, paper_trace):
        with pytest.raises(ValueError):
            belady_unit_size(paper_trace, cache_slots=2)

    def test_requires_positive_slots(self, unit_size_trace):
        with pytest.raises(ValueError):
            belady_unit_size(unit_size_trace, cache_slots=0)

    def test_hits_flagged_consistently(self, unit_size_trace):
        result = belady_unit_size(unit_size_trace, cache_slots=5)
        assert result.n_hits == int(result.hits.sum())
        assert result.ohr == pytest.approx(result.n_hits / len(unit_size_trace))


def _generated_trace(seed: int, lognormal_costs: bool, n: int = 260) -> Trace:
    """Zipf-ish requests over 60 objects; ``cost == size`` (every bypass
    arc costs 1.0/byte — the degenerate case) or lognormal costs."""
    rng = np.random.default_rng(seed)
    n_objects = 60
    sizes = rng.integers(1, 40, size=n_objects)
    costs = (
        rng.lognormal(mean=1.0, sigma=0.8, size=n_objects)
        if lognormal_costs
        else sizes.astype(np.float64)
    )
    weights = 1.0 / np.arange(1, n_objects + 1) ** 0.8
    objs = rng.choice(n_objects, size=n, p=weights / weights.sum())
    return Trace(
        [Request(t, int(o), int(sizes[o]), float(costs[o]))
         for t, o in enumerate(objs)]
    )


def _assert_same_result(found, expected):
    """Every field equal; floats as bit patterns, arrays element-wise."""
    assert type(found) is type(expected)
    for spec in fields(found):
        a, b = getattr(found, spec.name), getattr(expected, spec.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), spec.name
        elif isinstance(a, float):
            assert a.hex() == b.hex(), spec.name
        else:
            assert a == b, spec.name


def _solve_opt_row_by_row(trace: Trace, cache_size: int) -> OptResult:
    """`solve_opt`'s extraction as one Python loop per field — the oracle
    of its columnar form."""
    n = len(trace)
    result = solve_min_cost_flow(*build_opt_network(trace, cache_size))
    sizes, costs = trace.sizes, trace.costs
    nxt, prv = trace.next_occurrence(), trace.prev_occurrence()
    cached_fraction = np.zeros(n, dtype=np.float64)
    decisions = np.zeros(n, dtype=bool)
    hit_bytes = np.zeros(n, dtype=np.int64)
    bypass_flow = {}
    arc = n - 1  # the first bypass arc
    for i in range(n):
        if int(nxt[i]) >= 0:
            bypass_flow[i] = int(result.flow[arc])
            arc += 1
    for i in range(n):
        if int(nxt[i]) >= 0:
            missed = bypass_flow[i]
            cached_fraction[i] = 1.0 - missed / int(sizes[i])
            decisions[i] = missed == 0
    miss_cost = float(result.total_cost)
    for i in range(n):
        p = int(prv[i])
        if p < 0:
            miss_cost += float(costs[i])
        else:
            hit_bytes[i] = int(sizes[i]) - bypass_flow[p]
    return OptResult(
        decisions=decisions,
        cached_fraction=cached_fraction,
        hit_bytes=hit_bytes,
        miss_cost=miss_cost,
        flow_cost=float(result.total_cost),
        augmentations=result.augmentations,
    )


@pytest.mark.parametrize("lognormal_costs", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_columnar_extraction_matches_row_by_row(seed, lognormal_costs):
    trace = _generated_trace(seed, lognormal_costs)
    for cache_size in (25, 200):  # fractional intervals at the small one
        _assert_same_result(
            solve_opt(trace, cache_size),
            _solve_opt_row_by_row(trace, cache_size),
        )


def _result_digest(result) -> str:
    """Every field of an OPT result: arrays with their dtype, floats as
    bit patterns."""
    digest = blake2b(digest_size=8)
    for spec in fields(result):
        value = getattr(result, spec.name)
        if isinstance(value, np.ndarray):
            digest.update(value.dtype.str.encode() + value.tobytes())
        elif isinstance(value, float):
            digest.update(value.hex().encode())
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()


#: ``(seed, lognormal_costs) -> (solve_opt digests, solve_pruned
#: digests)`` at cache sizes 25 and 200 on 400-request traces; the
#: ``cost == size`` ones tie on every bypass arc.  Recorded on both
#: backends before the solver took arc columns; a change meant to keep
#: the labels leaves them alone.
_SOLVE_PINS = {
    (0, False): (("6e4b5692e7287630", "6e4bf51007d46987"),
                 ("b28057d78ad26a12", "69dcd115014835f7")),
    (0, True): (("208986134ef4a71a", "c8b060d624a5f500"),
                ("759da382ace6fb61", "9132ccb62090ff9b")),
    (1, False): (("0450a15b77cbdc9a", "244d236df39e9983"),
                 ("db81cb52aa7c2160", "08305f4c7b3ab892")),
    (1, True): (("314ef07eb9b9f310", "014a1f704f102994"),
                ("238fa3dfac9f3aaf", "f973faff0c42fad4")),
    (2, False): (("8a3ec0c7a3209e8a", "b1491ae8a429969b"),
                 ("2c3e082d3e9a6cf8", "060c6b2867c7ffb8")),
    (2, True): (("056a1527c29a5244", "33b11128e8d58341"),
                ("8b8acee117918bbd", "a58ae863b478859c")),
    (3, False): (("b6070a77a7a8cb29", "509cd9ccc84c1168"),
                 ("882d6aace4ecf6c6", "49dd2780c8c2394b")),
    (3, True): (("30ad14f240949155", "19b976a791ad7d9e"),
                ("be45227d3fc887fa", "081bb80208054031")),
}


@pytest.mark.parametrize("seed, lognormal_costs", sorted(_SOLVE_PINS))
def test_exact_and_pruned_solves_match_the_recorded_digests(
    seed, lognormal_costs
):
    """On whichever backend this run has: the default one, or the
    Python loop under ``REPRO_GBDT_NO_CC=1``."""
    trace = _generated_trace(seed, lognormal_costs, n=400)
    found = (
        tuple(_result_digest(solve_opt(trace, c)) for c in (25, 200)),
        tuple(
            _result_digest(solve_pruned(trace, c, keep_fraction=0.3))
            for c in (25, 200)
        ),
    )
    assert found == _SOLVE_PINS[seed, lognormal_costs]


class TestNativeMatchesPython:
    """OPT through the C augmentation loop and through the Python one:
    labels are whatever the solver's tie-breaks say, so every field —
    not just the optimum — must agree."""

    @pytest.mark.parametrize("lognormal_costs", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_solve_opt(self, native, seed, lognormal_costs):
        trace = _generated_trace(seed, lognormal_costs)
        for cache_size in (25, 200):
            found = solve_opt(trace, cache_size)
            with mock.patch.object(_native, "_state", False):
                expected = solve_opt(trace, cache_size)
            _assert_same_result(found, expected)

    @pytest.mark.parametrize("lognormal_costs", [False, True])
    def test_solve_segmented(self, native, lognormal_costs):
        trace = _generated_trace(11, lognormal_costs, n=500)
        found = solve_segmented(trace, 120, segment_length=150)
        with mock.patch.object(_native, "_state", False):
            expected = solve_segmented(trace, 120, segment_length=150)
        _assert_same_result(found, expected)

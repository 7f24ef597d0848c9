"""Tests for the Request/Trace model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import CostModel, Request, Trace


class TestRequest:
    def test_cost_defaults_to_size(self):
        r = Request(0.0, 1, 100)
        assert r.cost == 100.0

    def test_explicit_cost_preserved(self):
        r = Request(0.0, 1, 100, 7.5)
        assert r.cost == 7.5

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Request(0.0, 1, 0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Request(0.0, 1, -5)

    def test_frozen(self):
        r = Request(0.0, 1, 10)
        with pytest.raises(AttributeError):
            r.size = 20


class TestCostModel:
    def test_bhr_sets_cost_to_size(self):
        reqs = [Request(0, 1, 10, 3.0), Request(1, 2, 20, 4.0)]
        out = CostModel.apply(reqs, CostModel.BHR)
        assert [r.cost for r in out] == [10.0, 20.0]

    def test_ohr_sets_cost_to_one(self):
        reqs = [Request(0, 1, 10), Request(1, 2, 20)]
        out = CostModel.apply(reqs, CostModel.OHR)
        assert [r.cost for r in out] == [1.0, 1.0]

    def test_trace_preserves(self):
        reqs = [Request(0, 1, 10, 3.0)]
        out = CostModel.apply(reqs, CostModel.TRACE)
        assert out[0].cost == 3.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            CostModel.apply([], "latency")


class TestTrace:
    def test_len_iter_getitem(self, paper_trace):
        assert len(paper_trace) == 12
        assert sum(1 for _ in paper_trace) == 12
        assert paper_trace[0].obj == 0

    def test_slice_returns_trace(self, paper_trace):
        sub = paper_trace[2:5]
        assert isinstance(sub, Trace)
        assert len(sub) == 3

    def test_columnar_views(self, paper_trace):
        assert paper_trace.sizes[0] == 3
        assert paper_trace.objs.dtype == np.int64
        assert paper_trace.costs[0] == 3.0

    def test_append_invalidates_columns(self, paper_trace):
        _ = paper_trace.sizes
        paper_trace.append(Request(99, 7, 4))
        assert len(paper_trace.sizes) == 13
        assert paper_trace.sizes[-1] == 4

    def test_extend(self):
        t = Trace()
        t.extend([Request(0, 1, 1), Request(1, 2, 2)])
        assert len(t) == 2

    def test_next_occurrence(self, paper_trace):
        nxt = paper_trace.next_occurrence()
        # a at 0 -> 5, b at 1 -> 3, c at 2 -> 6, last a at 11 -> -1
        assert nxt[0] == 5
        assert nxt[1] == 3
        assert nxt[2] == 6
        assert nxt[11] == -1

    def test_prev_occurrence(self, paper_trace):
        prv = paper_trace.prev_occurrence()
        assert prv[0] == -1
        assert prv[3] == 1
        assert prv[5] == 0

    def test_next_prev_are_inverse(self, small_zipf_trace):
        nxt = small_zipf_trace.next_occurrence()
        prv = small_zipf_trace.prev_occurrence()
        for i, j in enumerate(nxt):
            if j >= 0:
                assert prv[j] == i

    def test_footprint_counts_each_object_once(self, paper_trace):
        assert paper_trace.footprint() == 3 + 1 + 1 + 2

    def test_footprint_takes_each_objects_last_size(self):
        """An object whose size changes counts once, at its last size."""
        t = Trace([Request(0, 7, 5), Request(1, 3, 2), Request(2, 7, 40),
                   Request(3, 3, 9), Request(4, 1, 4), Request(5, 3, 6)])
        assert t.footprint() == 40 + 6 + 4
        assert Trace([]).footprint() == 0

    def test_total_bytes(self, paper_trace):
        assert paper_trace.total_bytes() == sum(r.size for r in paper_trace)

    def test_windows_cover_trace(self, paper_trace):
        windows = list(paper_trace.windows(5))
        assert [len(w) for w in windows] == [5, 5, 2]
        flat = [r for w in windows for r in w]
        assert flat == paper_trace.requests

    def test_windows_invalid_size(self, paper_trace):
        with pytest.raises(ValueError):
            list(paper_trace.windows(0))

    def test_validate_accepts_good_trace(self, paper_trace):
        paper_trace.validate()

    def test_validate_rejects_time_travel(self):
        t = Trace([Request(5, 1, 1), Request(3, 2, 1)])
        with pytest.raises(ValueError, match="precedes"):
            t.validate()

    def test_validate_rejects_size_change(self):
        t = Trace([Request(0, 1, 1), Request(1, 1, 2)])
        with pytest.raises(ValueError, match="size changed"):
            t.validate()

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 100)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_next_occurrence_property(self, pairs):
        """next_occurrence points at the nearest later same-object index."""
        trace = Trace([Request(i, o, 1) for i, (o, _) in enumerate(pairs)])
        nxt = trace.next_occurrence()
        objs = [o for o, _ in pairs]
        for i in range(len(objs)):
            later = [j for j in range(i + 1, len(objs)) if objs[j] == objs[i]]
            expected = later[0] if later else -1
            assert nxt[i] == expected


@given(st.lists(st.integers(0, 6), max_size=40))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_occurrence_links_match_the_dict_walk(objs):
    trace = Trace([Request(float(t), o, 1) for t, o in enumerate(objs)])
    nxt, prv, seen = [-1] * len(objs), [-1] * len(objs), {}
    for i, o in enumerate(objs):
        if o in seen:
            prv[i] = seen[o]
            nxt[seen[o]] = i
        seen[o] = i
    for found, expected in (
        (trace.next_occurrence(), nxt), (trace.prev_occurrence(), prv)
    ):
        assert found.dtype == np.int64 and found.tolist() == expected


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 2**40)),
                max_size=40))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_footprint_matches_the_dict_walk(pairs):
    trace = Trace([Request(float(t), o, s) for t, (o, s) in enumerate(pairs)])
    last = {}
    for o, s in pairs:
        last[o] = s
    assert trace.footprint() == sum(last.values())


def _links(trace):
    return trace.next_occurrence().tolist(), trace.prev_occurrence().tolist()


class TestOccurrenceLinkCache:
    """The links are sorted once per trace state and cached with the
    columns: growing the trace recomputes them, callers get copies."""

    def test_append_recomputes_the_links(self, paper_trace):
        _links(paper_trace)
        paper_trace.append(Request(12, 1, 1))
        assert _links(paper_trace) == _links(Trace(list(paper_trace)))
        assert paper_trace.next_occurrence()[10] == 12

    def test_extend_recomputes_the_links(self, paper_trace):
        _links(paper_trace)
        paper_trace.extend([Request(12, 3, 2), Request(13, 0, 3)])
        assert _links(paper_trace) == _links(Trace(list(paper_trace)))
        assert paper_trace.prev_occurrence()[13] == 11

    def test_returned_arrays_are_the_callers(self, paper_trace):
        expected = _links(paper_trace)
        paper_trace.next_occurrence()[:] = 99
        paper_trace.prev_occurrence()[:] = 99
        assert _links(paper_trace) == expected

    def test_slices_and_windows_link_their_own_requests(self, paper_trace):
        _links(paper_trace)
        parts = [paper_trace[2:9], *paper_trace.windows(5)]
        for part in parts:
            assert _links(part) == _links(Trace(list(part)))
        # Request 2's next `c` is request 6, position 4 of the slice.
        assert parts[0].next_occurrence()[0] == 4
        assert parts[1].next_occurrence().tolist() == [-1, 3, -1, -1, -1]

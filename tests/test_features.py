"""Tests for the online feature tracker and dataset assembly."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import (
    MISSING_GAP,
    Dataset,
    FeatureTracker,
    feature_names,
    thin_gaps,
)
from repro.trace import Request, Trace


def window_dataset(trace, n_gaps=50):
    """Each request's features before its own update, all labels 0."""
    tracker = FeatureTracker(n_gaps=n_gaps)
    X = tracker.features_batch(
        trace.objs.tolist(), trace.times, trace.sizes, trace.costs, 10.0,
        update=True,
    )
    return Dataset(X, np.zeros(len(trace)), feature_names(n_gaps))


def record(tracker, request):
    """``update`` takes the three scalars it stores."""
    tracker.update(request.obj, request.time, request.cost)


class TestFeatureNames:
    def test_layout(self):
        names = feature_names(3)
        assert names == ["size", "cost", "free_bytes", "gap_1", "gap_2", "gap_3"]


class TestFeatureTracker:
    def test_first_request_all_gaps_missing(self):
        tracker = FeatureTracker(n_gaps=5)
        vec = tracker.features(Request(10.0, 1, 100), free_bytes=500)
        assert vec[0] == 100  # size
        assert vec[1] == 100  # cost defaults to size
        assert vec[2] == 500  # free bytes
        assert (vec[3:] == MISSING_GAP).all()

    def test_gap_one_is_time_since_last_request(self):
        tracker = FeatureTracker(n_gaps=5)
        record(tracker, Request(10.0, 1, 100))
        vec = tracker.features(Request(17.0, 1, 100), free_bytes=0)
        assert vec[3] == 7.0
        assert (vec[4:] == MISSING_GAP).all()

    def test_gap_sequence_most_recent_first(self):
        tracker = FeatureTracker(n_gaps=4)
        for t in (0.0, 1.0, 3.0, 6.0):
            record(tracker, Request(t, 1, 10))
        vec = tracker.features(Request(10.0, 1, 10), free_bytes=0)
        # gaps: now-6=4, 6-3=3, 3-1=2, 1-0=1
        assert vec[3:].tolist() == [4.0, 3.0, 2.0, 1.0]

    def test_gap_shift_invariance(self):
        """Shifting all timestamps leaves gaps 2..n unchanged and gap_1
        depends only on the distance to now — the paper's robustness
        argument for the gap (not absolute-time) representation."""
        def gaps_for(offset):
            tracker = FeatureTracker(n_gaps=3)
            for t in (0.0, 2.0, 5.0):
                record(tracker, Request(t + offset, 1, 10))
            return tracker.features(
                Request(9.0 + offset, 1, 10), free_bytes=0
            )[3:]
        assert gaps_for(0.0).tolist() == gaps_for(1234.5).tolist()

    def test_ring_buffer_keeps_latest(self):
        tracker = FeatureTracker(n_gaps=2)
        for t in range(10):
            record(tracker, Request(float(t), 1, 10))
        vec = tracker.features(Request(20.0, 1, 10), free_bytes=0)
        assert vec[3] == 11.0  # 20 - 9
        assert vec[4] == 1.0  # 9 - 8

    def test_last_cost_tracked(self):
        tracker = FeatureTracker(n_gaps=2)
        record(tracker, Request(0.0, 1, 10, 99.0))
        vec = tracker.features(Request(1.0, 1, 10, 5.0), free_bytes=0)
        assert vec[1] == 99.0  # most recent *retrieval* cost

    def test_objects_independent(self):
        tracker = FeatureTracker(n_gaps=2)
        record(tracker, Request(0.0, 1, 10))
        vec = tracker.features(Request(5.0, 2, 20), free_bytes=0)
        assert (vec[3:] == MISSING_GAP).all()

    def test_max_objects_evicts_lru_state(self):
        tracker = FeatureTracker(n_gaps=2, max_objects=2)
        record(tracker, Request(0.0, 1, 10))
        record(tracker, Request(1.0, 2, 10))
        record(tracker, Request(2.0, 3, 10))
        assert tracker.n_tracked == 2
        vec = tracker.features(Request(3.0, 1, 10), free_bytes=0)
        assert (vec[3:] == MISSING_GAP).all()  # object 1 was forgotten

    @given(
        st.integers(1, 6),
        st.lists(st.integers(0, 9) | st.just(0), min_size=1, max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_capped_tracker_evicts_in_exact_lru_order(self, cap, objs):
        """Against an ``OrderedDict`` model, hits interleaved: the same
        victim at the same request, the same recency order after each."""
        tracker = FeatureTracker(n_gaps=2, max_objects=cap)
        model = OrderedDict()
        for t, obj in enumerate(objs):
            tracker.update(obj, float(t), 1.0)
            model[obj] = None
            model.move_to_end(obj)
            victim = None
            if len(model) > cap:
                victim, _ = model.popitem(last=False)
            assert tracker.last_evicted == victim
            assert list(tracker._rows) == list(model)

    def test_uncapped_tracker_keeps_no_recency(self):
        """``_rows`` is in LRU order iff capped: nothing reads the order
        of an uncapped tracker, so a hit does not pay for it."""
        tracker = FeatureTracker(n_gaps=2)
        for t, obj in enumerate([1, 2, 3, 1, 2, 1]):
            tracker.update(obj, float(t), 1.0)
        assert list(tracker._rows) == [1, 2, 3]

    def test_cap_is_imposed_only_on_an_empty_tracker(self):
        tracker = FeatureTracker(n_gaps=2)
        tracker.max_objects = 0  # not a cap
        tracker.max_objects = 2
        for t, obj in enumerate([1, 2, 1, 3]):
            tracker.update(obj, float(t), 1.0)
        assert tracker.last_evicted == 2 and tracker.n_tracked == 2
        tracker.max_objects = 3  # a kept order serves any cap
        tracker.update(2, 4.0, 1.0)
        assert tracker.last_evicted is None and tracker.n_tracked == 3
        tracker.max_objects = 0  # lifting one is always possible
        with pytest.raises(ValueError, match="already tracks"):
            tracker.max_objects = 2
        assert tracker.max_objects == 0
        with pytest.raises(ValueError):
            tracker.max_objects = -1
        for obj in (1, 2, 3):
            tracker.forget(obj)
        tracker.max_objects = 1
        assert tracker.max_objects == 1

    def test_forget(self):
        tracker = FeatureTracker(n_gaps=2)
        record(tracker, Request(0.0, 1, 10))
        tracker.forget(1)
        assert tracker.n_tracked == 0

    def test_memory_accounting_positive(self):
        tracker = FeatureTracker(n_gaps=50)
        record(tracker, Request(0.0, 1, 10))
        # The paper's naive estimate: 208 B per object at 50 gaps.
        assert tracker.memory_bytes_naive() == 208

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            FeatureTracker(n_gaps=0)
        with pytest.raises(ValueError):
            FeatureTracker(max_objects=-1)

    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_gaps_are_positive_and_ordered_property(self, deltas):
        """All produced gaps are positive and chronologically consistent."""
        tracker = FeatureTracker(n_gaps=50)
        t = 0.0
        for d in deltas:
            record(tracker, Request(t, 1, 10))
            t += d
        vec = tracker.features(Request(t, 1, 10), free_bytes=0)
        gaps = vec[3:]
        real = gaps[gaps != MISSING_GAP]
        assert (real > 0).all()
        assert len(real) == min(len(deltas), 50)


class TestBuildDataset:
    def test_subset(self, paper_trace):
        ds = window_dataset(paper_trace)
        sub = ds.subset(np.array([0, 3, 5]))
        assert len(sub) == 3
        assert (sub.X[1] == ds.X[3]).all()


class TestThinGaps:
    def test_keeps_requested_gaps(self, paper_trace):
        ds = window_dataset(paper_trace)
        thinned = thin_gaps(ds, [1, 2, 4, 8, 16])
        assert thinned.names == [
            "size", "cost", "free_bytes",
            "gap_1", "gap_2", "gap_4", "gap_8", "gap_16",
        ]
        assert thinned.X.shape == (12, 8)

    def test_column_content_preserved(self, paper_trace):
        ds = window_dataset(paper_trace)
        thinned = thin_gaps(ds, [3])
        original_col = ds.names.index("gap_3")
        assert (thinned.X[:, 3] == ds.X[:, original_col]).all()

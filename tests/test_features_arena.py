"""Equivalence tests for the arena-backed feature tracker.

The arena rewrite (dense time slab + free-list row recycling) must be
observationally identical to the straightforward per-object bookkeeping
it replaced.  A minimal reference implementation lives here, and the
tests drive both through randomised request streams — including LRU-cap
churn that forces row recycling, explicit forgets, and slab growth — and
demand bit-identical feature vectors throughout.
"""

import copy
import inspect
import pickle
import textwrap
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import _native
from repro.features import MISSING_GAP, FeatureTracker
from repro.features import tracker as tracker_module
from repro.trace import Request, Trace


def record(tracker, request: Request) -> None:
    """``update`` takes the three scalars it stores."""
    tracker.update(request.obj, request.time, request.cost)


def columns(requests):
    """``features_batch``'s leading arguments for a list of requests."""
    trace = Trace(list(requests))
    return trace.objs.tolist(), trace.times, trace.sizes, trace.costs


class ReferenceTracker:
    """The pre-arena semantics: one ring buffer per tracked object."""

    def __init__(self, n_gaps: int, max_objects: int = 0) -> None:
        self.n_gaps = n_gaps
        self.max_objects = max_objects
        self.state: dict[int, dict] = {}  # insertion order = LRU order

    def features(self, request: Request, free_bytes) -> np.ndarray:
        vec = np.empty(3 + self.n_gaps)
        vec[0] = request.size
        vec[2] = free_bytes
        st = self.state.get(request.obj)
        if st is None:
            vec[1] = request.cost
            vec[3:] = MISSING_GAP
            return vec
        vec[1] = st["cost"]
        times = st["times"]  # most recent first
        vec[3:] = MISSING_GAP
        if times:
            vec[3] = request.time - times[0]
            for k in range(1, min(len(times), self.n_gaps)):
                vec[3 + k] = times[k - 1] - times[k]
        return vec

    def update(self, request: Request) -> None:
        st = self.state.pop(request.obj, None)
        if st is None:
            st = {"times": [], "cost": 0.0}
        st["times"] = ([request.time] + st["times"])[: self.n_gaps + 1]
        st["cost"] = request.cost
        self.state[request.obj] = st
        if self.max_objects and len(self.state) > self.max_objects:
            oldest = next(iter(self.state))
            del self.state[oldest]

    def forget(self, obj: int) -> None:
        self.state.pop(obj, None)


def request_stream(n, n_objects, seed):
    rng = np.random.default_rng(seed)
    t = 0.0
    for _ in range(n):
        t += float(rng.exponential(1.0))
        obj = int(rng.integers(0, n_objects))
        size = int(rng.integers(1, 100))
        yield Request(t, obj, size, float(rng.uniform(0.5, 20.0))), rng


@pytest.mark.parametrize(
    "max_objects,n_gaps", [(0, 50), (16, 50), (5, 7), (0, 3)]
)
def test_bit_identical_to_reference_under_churn(max_objects, n_gaps):
    tracker = FeatureTracker(n_gaps=n_gaps, max_objects=max_objects)
    reference = ReferenceTracker(n_gaps=n_gaps, max_objects=max_objects)
    rng = np.random.default_rng(max_objects * 101 + n_gaps)
    t = 0.0
    for i in range(4000):
        t += float(rng.exponential(1.0))
        request = Request(
            t, int(rng.integers(0, 60)), int(rng.integers(1, 100)),
            float(rng.uniform(0.5, 20.0)),
        )
        free = int(rng.integers(0, 10_000))
        got = tracker.features(request, free)
        want = reference.features(request, free)
        assert np.array_equal(got, want), f"diverged at request {i}"
        record(tracker, request)
        reference.update(request)
        if rng.random() < 0.01:
            victim = int(rng.integers(0, 60))
            tracker.forget(victim)
            reference.forget(victim)
    assert tracker.n_tracked == len(reference.state)


def test_slab_growth_preserves_state(monkeypatch):
    """Force repeated arena doubling and check history survives each one."""
    monkeypatch.setattr(tracker_module, "_INITIAL_CAPACITY", 4)
    tracker = FeatureTracker(n_gaps=4)
    reference = ReferenceTracker(n_gaps=4)
    for i in range(200):
        request = Request(float(i), i % 37, 10)
        assert np.array_equal(
            tracker.features(request, 0), reference.features(request, 0)
        )
        record(tracker, request)
        reference.update(request)
    assert tracker.n_tracked == 37


def test_recycled_rows_start_clean():
    """A row freed by the LRU cap must not leak its history to the next
    object allocated into it."""
    tracker = FeatureTracker(n_gaps=3, max_objects=1)
    for t in range(5):
        record(tracker, Request(float(t), 1, 10))
    record(tracker, Request(5.0, 2, 10))  # evicts object 1, recycles its row
    vec = tracker.features(Request(6.0, 2, 10), free_bytes=0)
    assert vec[3] == 1.0
    assert (vec[4:] == MISSING_GAP).all()


def test_last_evicted_reported():
    tracker = FeatureTracker(n_gaps=2, max_objects=2)
    record(tracker, Request(0.0, 1, 10))
    assert tracker.last_evicted is None
    record(tracker, Request(1.0, 2, 10))
    record(tracker, Request(2.0, 3, 10))
    assert tracker.last_evicted == 1
    record(tracker, Request(3.0, 3, 10))
    assert tracker.last_evicted is None


class TestFeaturesBatch:
    def _warm(self, n_gaps=5, max_objects=0, seed=11, n=500):
        tracker = FeatureTracker(n_gaps=n_gaps, max_objects=max_objects)
        rng = np.random.default_rng(seed)
        t = 0.0
        for _ in range(n):
            t += float(rng.exponential(1.0))
            record(
                tracker,
                Request(t, int(rng.integers(0, 40)), int(rng.integers(1, 50))),
            )
        return tracker, rng, t

    def test_probe_matches_scalar_extraction(self):
        tracker, rng, t = self._warm()
        batch = [
            Request(t + i, int(rng.integers(0, 60)), int(rng.integers(1, 50)))
            for i in range(64)
        ]
        X = tracker.features_batch(*columns(batch), 777)
        # 64 draws from 60 objects repeat: the probe is the loop.
        for i, request in enumerate(batch):
            assert np.array_equal(X[i], tracker.features(request, 777))
            record(tracker, request)

    def test_probe_per_row_free_bytes(self):
        tracker, rng, t = self._warm()
        batch = [Request(t + i, i % 40, 10) for i in range(16)]
        free = np.arange(16, dtype=np.float64) * 100
        X = tracker.features_batch(*columns(batch), free)
        assert np.array_equal(X[:, 2], free)
        for i, request in enumerate(batch):
            assert np.array_equal(X[i], tracker.features(request, free[i]))

    def test_probe_does_not_mutate_state(self):
        tracker, rng, t = self._warm()
        before = tracker.n_tracked
        tracker.features_batch(*columns([Request(t + 1, 9999, 10)]), 0)
        assert tracker.n_tracked == before

    def test_update_mode_matches_sequential_loop(self):
        tracker_a, rng, t = self._warm(max_objects=8, seed=5)
        tracker_b, _, _ = self._warm(max_objects=8, seed=5)
        batch = [
            Request(t + i * 0.5, int(i % 12), 10 + i) for i in range(40)
        ]
        free = np.linspace(0, 4000, 40)
        X = tracker_a.features_batch(*columns(batch), free, update=True)
        for i, request in enumerate(batch):
            expected = tracker_b.features(request, free[i])
            record(tracker_b, request)
            assert np.array_equal(X[i], expected), f"row {i}"
        assert tracker_a.n_tracked == tracker_b.n_tracked

    def test_unknown_objects_all_missing(self):
        tracker = FeatureTracker(n_gaps=4)
        X = tracker.features_batch(*columns([Request(1.0, 5, 30, 2.5)]), 100)
        assert X[0, 0] == 30
        assert X[0, 1] == 2.5
        assert X[0, 2] == 100
        assert (X[0, 3:] == MISSING_GAP).all()

    def test_empty_batch(self):
        tracker = FeatureTracker(n_gaps=4)
        X = tracker.features_batch([], [], [], [], 0)
        assert X.shape == (0, tracker.n_features)


# -- the probe *is* the loop -------------------------------------------------

# Objects drawn with a heavy skew to 0 and 1, so chains of three and more
# in-window repeats are the common case; gaps of 0.0 are timestamp ties.
_event = st.tuples(
    st.sampled_from([0, 0, 0, 0, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 7.0]),
    st.integers(1, 100),
    st.sampled_from([0.0, 1.0, 3.5]),
)


@st.composite
def warm_tracker_and_window(draw, max_objects=st.just(0)):
    """A tracker warmed by a features/update loop (so object 0 usually
    holds ``n_gaps + 1`` recorded times) and the window that follows."""
    n_gaps = draw(st.integers(1, 5))
    tracker = FeatureTracker(n_gaps=n_gaps, max_objects=draw(max_objects))
    now, window = 0.0, []
    for obj, gap, _size, cost in draw(st.lists(_event, max_size=60)):
        now += gap
        tracker.update(obj, now, cost)
    for obj, gap, size, cost in draw(
        st.lists(_event, min_size=1, max_size=300)
    ):
        now += gap
        window.append(Request(now, obj, size, cost))
    return tracker, window


def _state(tracker):
    return (
        tracker._times.copy(), tracker._seen.copy(),
        tracker._last_cost.copy(), list(tracker._rows.items()),
        list(tracker._free), tracker._next_row, tracker.last_evicted,
    )


def _loop_rows(tracker, window, free):
    """Rows of a features/update loop, and the index of the row whose
    ``update`` performed the first cap eviction (``len(window)`` = none)."""
    rows, first_eviction = [], len(window)
    for i, request in enumerate(window):
        rows.append(tracker.features(request, free))
        record(tracker, request)
        if tracker.last_evicted is not None:
            first_eviction = min(first_eviction, i)
    return np.array(rows), first_eviction


HOT_WINDOW = [Request(float(t // 3), t % 2, 10 + t % 7, 0.0) for t in range(300)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(warm_tracker_and_window())
@example((FeatureTracker(n_gaps=3), HOT_WINDOW))
def test_probe_rows_are_the_loops_rows_bitwise(case):
    tracker, window = case
    before = _state(tracker)
    X = tracker.features_batch(*columns(window), 4242)
    for was, now in zip(before, _state(tracker)):
        assert np.array_equal(was, now)  # arena, LRU order, last_evicted
    want, _ = _loop_rows(copy.deepcopy(tracker), window, 4242)
    assert np.array_equal(X, want)  # bitwise: no allclose anywhere


@settings(max_examples=60, derandomize=True, deadline=None)
@given(warm_tracker_and_window(max_objects=st.integers(1, 4)))
@example((FeatureTracker(n_gaps=3, max_objects=1), HOT_WINDOW))
def test_capped_probe_agrees_up_to_the_first_cap_eviction(case):
    """What the probe cannot know is exactly the cap: rows up to and
    including the one whose ``update`` first evicts are the loop's."""
    tracker, window = case
    before = _state(tracker)
    X = tracker.features_batch(*columns(window), 0)
    for was, now in zip(before, _state(tracker)):
        assert np.array_equal(was, now)
    want, first_eviction = _loop_rows(copy.deepcopy(tracker), window, 0)
    assert np.array_equal(X[: first_eviction + 1], want[: first_eviction + 1])


def test_one_counter_is_head_and_count(monkeypatch):
    """``update`` keeps one counter per row; ring head and fill level
    derive from it.  Against the reference: summary, tracked count, row
    recycling after ``forget`` and growth across two doublings."""
    monkeypatch.setattr(tracker_module, "_INITIAL_CAPACITY", 4)
    tracker = FeatureTracker(n_gaps=3)
    reference = ReferenceTracker(n_gaps=3)
    rng = np.random.default_rng(3)
    now = 0.0
    for i in range(600):
        now += float(rng.choice([0.0, 0.5, 2.0]))
        request = Request(
            now, int(rng.integers(0, 13)), 10, float(rng.integers(0, 5))
        )
        record(tracker, request)
        reference.update(request)
        if i % 41 == 40:
            tracker.forget(i % 13)
            reference.forget(i % 13)
        assert tracker.n_tracked == len(reference.state)
        last = np.array([st["times"][0] for st in reference.state.values()])
        costs = np.array([st["cost"] for st in reference.state.values()])
        assert tracker.arena_summary(now) == {
            "tracked": len(reference.state),
            "recency_mean": float(now - last.mean()),
            "cost_mean": float(costs.mean()),
        }
    assert len(tracker._seen) == 16  # 4 -> 8 -> 16 for 13 objects
    assert tracker._next_row == 13  # forgotten rows were recycled
    for obj in range(13):
        probe = Request(now + 1.0, obj, 10)
        assert np.array_equal(
            tracker.features(probe, 0), reference.features(probe, 0)
        )


# -- the native routines: gather == numpy == loop, deferred == immediate ------


@contextmanager
def backend(name):
    """Run a block on the named backend (``"native"`` as loaded, or
    ``"numpy"``: the module reported unavailable, as ``python_fallback``
    does — a context manager because hypothesis reuses fixtures)."""
    state = _native._state
    if name == "numpy":
        _native._state = False
    try:
        yield
    finally:
        _native._state = state


def small_tracker(n_gaps, capacity=2):
    """A tracker whose arena starts at ``capacity`` rows, so that a
    handful of objects doubles it several times."""
    initial = tracker_module._INITIAL_CAPACITY
    tracker_module._INITIAL_CAPACITY = capacity
    try:
        return FeatureTracker(n_gaps=n_gaps)
    finally:
        tracker_module._INITIAL_CAPACITY = initial


def _arena(tracker):
    """Full arena state, pending records written first."""
    tracker.n_tracked
    assert not tracker._pending
    return _state(tracker)


def _assert_same_arena(left, right):
    for a, b in zip(_arena(left), _arena(right)):
        assert np.array_equal(a, b)


#: update | forget, weighted to updates; object 0 and 1 dominate, so with
#: ``n_gaps <= 3`` one object fills its ring many times inside one window.
_warm_op = st.one_of(
    st.tuples(st.just("update"), _event),
    st.tuples(st.just("update"), _event),
    st.tuples(st.just("update"), _event),
    st.tuples(st.just("forget"), st.integers(0, 9)),
)


@st.composite
def churned_tracker_and_window(draw):
    """A tracker that grew from two rows and recycled forgotten ones, as
    built, deep-copied or unpickled, and the window probed next (objects
    10.. are unseen; ``grow`` makes the window's own flush allocate)."""
    n_gaps = draw(st.integers(1, 3))
    tracker = small_tracker(n_gaps)
    now = 0.0
    for kind, arg in draw(st.lists(_warm_op, max_size=80)):
        if kind == "forget":
            tracker.forget(arg)
        else:
            obj, gap, _size, cost = arg
            now += gap
            tracker.update(obj, now, cost)
    window = []
    for obj, gap, size, cost in draw(
        st.lists(_event, min_size=1, max_size=120)
    ):
        now += gap
        obj += draw(st.sampled_from([0, 0, 0, 10]))
        window.append(Request(now, obj, size, cost))
    via = draw(st.sampled_from(["built", "deepcopy", "pickle"]))
    if via == "deepcopy":
        tracker = copy.deepcopy(tracker)
    elif via == "pickle":
        tracker = pickle.loads(pickle.dumps(tracker))
    return tracker, window


@settings(max_examples=80, derandomize=True, deadline=None)
@given(churned_tracker_and_window())
@example((small_tracker(3), HOT_WINDOW))
def test_native_gather_is_the_numpy_gather_is_the_loop(native, case):
    tracker, window = case
    before = _state(tracker)
    got = tracker.features_batch(*columns(window), 4242)
    with backend("numpy"):
        reference = tracker.features_batch(*columns(window), 4242)
    for was, now in zip(before, _state(tracker)):
        assert np.array_equal(was, now)
    assert got.tobytes() == reference.tobytes()
    want, _ = _loop_rows(tracker, window, 4242)
    assert got.tobytes() == want.tobytes()


def test_probe_straight_after_growth_reads_the_new_arena(native):
    """The flush a probe triggers may double the arena (here three
    times): the gather must take its addresses after that."""
    deferred, immediate = small_tracker(2), small_tracker(2)
    deferred.defer_updates(True)
    for t in range(40):
        deferred.update(t % 13, float(t), 1.0 + t)
        immediate.update(t % 13, float(t), 1.0 + t)
    assert len(deferred._seen) == 2 and deferred._pending
    window = [Request(40.0 + t, t % 17, 10, 2.0) for t in range(34)]
    assert np.array_equal(
        deferred.features_batch(*columns(window), 5),
        immediate.features_batch(*columns(window), 5),
    )
    assert len(deferred._seen) == 16
    _assert_same_arena(deferred, immediate)


_read = st.sampled_from(
    ["features", "batch", "n_tracked", "summary", "forget", "memory",
     "close", "open", "copy", "pickle"]
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.one_of(_event, _event, _event, _read), max_size=200),
)
def test_deferred_record_is_the_immediate_loop(native, n_gaps, ops):
    """No read sees an unflushed arena: whatever is read, wherever, the
    deferred tracker answers as the immediate one, and the arenas agree
    to the last field — rings that wrap inside one run, rows allocated,
    grown and recycled by the flush, LRU order."""
    deferred, immediate = small_tracker(n_gaps), small_tracker(n_gaps)
    deferred.defer_updates(True)
    now = 0.0
    for op in ops:
        if isinstance(op, tuple):
            obj, gap, _size, cost = op
            now += gap
            deferred.update(obj, now, cost)
            immediate.update(obj, now, cost)
            continue
        probe = [Request(now + 1.0, obj, 10, 2.0) for obj in (0, 1, 0, 5, 11)]
        if op == "features":
            got, want = (
                t.features(probe[0], 7) for t in (deferred, immediate)
            )
        elif op == "batch":
            got, want = (
                t.features_batch(*columns(probe), 7)
                for t in (deferred, immediate)
            )
        elif op == "n_tracked":
            got, want = deferred.n_tracked, immediate.n_tracked
        elif op == "memory":
            got, want = (
                t.memory_bytes_naive() for t in (deferred, immediate)
            )
        elif op == "summary":
            got, want = (
                list(t.arena_summary(now).values())
                for t in (deferred, immediate)
            )
        elif op == "forget":
            got, want = deferred.forget(1), immediate.forget(1)
        elif op in ("close", "open"):
            # Closing writes nothing; the next immediate update flushes.
            got, want = deferred.defer_updates(op == "open"), None
        elif op == "copy":
            got, want = None, None
            deferred = copy.deepcopy(deferred)
        else:
            got, want = None, None
            deferred = pickle.loads(pickle.dumps(deferred))
        assert np.array_equal(got, want), op
    _assert_same_arena(deferred, immediate)


def test_records_deferred_elsewhere_are_written_without_the_module(native):
    """A tracker pickled with records pending and opened where the
    module cannot be built writes them with ``update``'s own stores."""
    deferred, immediate = small_tracker(2), small_tracker(2)
    deferred.defer_updates(True)
    for t in range(30):
        deferred.update(t % 4, float(t), 0.5 * t)
        immediate.update(t % 4, float(t), 0.5 * t)
    shipped = pickle.loads(pickle.dumps(deferred))
    with backend("numpy"):
        assert shipped._pending
        _assert_same_arena(shipped, immediate)


def test_imposing_a_cap_closes_the_deferred_window(native):
    tracker = FeatureTracker(n_gaps=2)
    tracker.defer_updates(True)
    tracker.max_objects = 2
    for t, obj in enumerate([1, 2, 1, 3]):
        tracker.update(obj, float(t), 1.0)
    assert not tracker._pending
    assert tracker.last_evicted == 2 and list(tracker._rows) == [1, 3]


def test_cap_set_after_construction_records_immediately(native):
    tracker = FeatureTracker(n_gaps=2)
    tracker.max_objects = 2
    tracker.defer_updates(True)
    for t, obj in enumerate([1, 2, 3]):
        tracker.update(obj, float(t), 1.0)
    assert not tracker._pending
    assert tracker.last_evicted == 1 and tracker.n_tracked == 2


def test_cap_is_refused_while_records_are_pending(native):
    """Pending records are tracked objects: the setter writes them, then
    refuses — their recency was never kept."""
    tracker = FeatureTracker(n_gaps=2)
    tracker.defer_updates(True)
    tracker.update(1, 0.0, 1.0)
    assert tracker._pending
    with pytest.raises(ValueError, match="already tracks"):
        tracker.max_objects = 2
    assert not tracker._pending and tracker.n_tracked == 1


def test_no_module_records_immediately(python_fallback):
    tracker = FeatureTracker(n_gaps=2)
    tracker.defer_updates(True)
    tracker.update(1, 0.0, 1.0)
    assert not tracker._pending and tracker._seen[0] == 1


@pytest.mark.parametrize("name", ["native", "numpy"])
def test_bad_windows_are_refused_alike_on_both_backends(name):
    if name == "native" and _native.load() is None:
        pytest.skip("native module unavailable")
    tracker = FeatureTracker(n_gaps=2)
    tracker.update(7, 0.0, 1.0)
    objs, times, sizes, costs = columns(
        [Request(1.0, 7, 10), Request(2.0, 8, 10), Request(3.0, 7, 10)]
    )
    with backend(name):
        for bad in (
            (objs, times[:2], sizes, costs),
            (objs, times, sizes[:2], costs),
            (objs, times, sizes, costs[:2]),
            (objs[:2], times, sizes, costs),
        ):
            with pytest.raises(ValueError, match="differ in length"):
                tracker.features_batch(*bad, 0)
        with pytest.raises(ValueError):
            tracker.features_batch(objs, times, sizes, costs, [0.0, 1.0])
        for row in (len(tracker._seen), -2):
            tracker._rows[7] = row
            with pytest.raises(ValueError, match="outside the arena"):
                tracker.features_batch(objs, times, sizes, costs, 0)
        tracker._rows[7] = 0
        assert tracker.features_batch(objs, times, sizes, costs, 0)[2, 3] == 2.0


def test_a_deferred_record_to_a_row_outside_the_arena_is_refused(native):
    tracker = FeatureTracker(n_gaps=2)
    tracker.update(7, 0.0, 1.0)
    tracker._rows[7] = len(tracker._seen)
    tracker.defer_updates(True)
    tracker.update(7, 1.0, 1.0)
    with pytest.raises(ValueError, match="outside the arena"):
        tracker.n_tracked


# -- the row formula: one ring read, one subtraction ---------------------------


def reference_extract(tracker, obj, time, size, cost, free_bytes):
    """``FeatureTracker._extract`` as it stood through PR 21 — a sliced
    read of the ``min(seen, n_gaps)`` valid slots, two slice fills, two
    subtractions — kept as the reference the one-read form must equal
    bitwise."""
    tracker.n_tracked  # pending records first, as every reader
    vec = np.empty(tracker.n_features, dtype=np.float64)
    vec[0] = size
    vec[2] = free_bytes
    row = tracker._rows.get(obj)
    if row is None:
        vec[1] = cost
        vec[3:] = MISSING_GAP
    else:
        vec[1] = tracker._last_cost[row]
        seen = tracker._seen.item(row)
        m = min(seen, tracker.n_gaps)
        gaps = vec[3:]
        gaps[m:] = MISSING_GAP
        t = tracker._times[row, tracker._idx[seen % tracker._n_slots, :m]]
        gaps[0] = time - t[0]
        if m > 1:
            gaps[1:m] = t[: m - 1] - t[1:m]
    return vec


#: One op of a history: a request (``_event``), ``("forget", obj)``, or
#: ``("burst", k)`` — object 0 requested ``k`` more times, ties included,
#: which is how a ring of 51 slots gets past its second wrap.
_history_op = st.one_of(
    _event, _event, _event,
    st.tuples(st.just("forget"), st.integers(0, 9)),
    st.tuples(st.just("burst"), st.integers(1, 40)),
)

#: Every row class at ``n_gaps`` 5 and 50 in one history: an unseen
#: object, ``seen`` = 1, 2, .. through two ring wraps of object 0 (ties
#: inside), a forgotten object's row recycled by a new one.
COVERING_HISTORY = (
    [(0, 1.0, 10, 1.0), (1, 0.5, 10, 2.0), (2, 0.0, 10, 0.0)]
    + [("burst", 1)] * 7
    + [("forget", 1), (3, 7.0, 10, 3.5), (3, 0.0, 10, 1.0)]
    + [("burst", 40), ("burst", 40), ("burst", 30)]
)


def _check_rows_against_reference(name, n_gaps, ops):
    """Apply ``ops`` — inside a deferred window where the backend has
    one — and compare every object's row, and an unseen object's, with
    the reference after each op."""
    with backend(name):
        tracker = small_tracker(n_gaps)
        tracker.defer_updates(True)
        now = 0.0
        for op in ops:
            if op[0] == "forget":
                tracker.forget(op[1])
            elif op[0] == "burst":
                for i in range(op[1]):
                    now += (0.0, 0.5, 3.0)[i % 3]
                    tracker.update(0, now, float(i))
            else:
                obj, gap, _size, cost = op
                now += gap
                tracker.update(obj, now, cost)
            for obj in (*range(10), 99):
                probe = (obj, now + 0.25, 7, 1.5, 1234)
                got = tracker._extract(*probe)
                want = reference_extract(tracker, *probe)
                assert got.tobytes() == want.tobytes(), (obj, got, want)
        seen = tracker._seen[tracker._rows[0]] if 0 in tracker._rows else 0
    return int(seen)


@pytest.mark.parametrize("name", ["native", "numpy"])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.sampled_from([1, 2, 5, 50]),
    st.lists(_history_op, min_size=1, max_size=40),
)
@example(5, COVERING_HISTORY)
@example(50, COVERING_HISTORY)
def test_rows_equal_the_sliced_reference_bitwise(name, n_gaps, ops):
    if name == "native" and _native.load() is None:
        pytest.skip("native module unavailable")
    seen = _check_rows_against_reference(name, n_gaps, ops)
    if ops == COVERING_HISTORY:
        assert seen > 2 * (n_gaps + 1)  # past the second wrap


@pytest.mark.parametrize(
    "old,new",
    [
        # slice off by one
        ("np.subtract(t[:-2], t[1:-1],", "np.subtract(t[1:-1], t[2:],"),
        # the MISSING_GAP fill dropped
        ("if seen < self.n_gaps:", "if seen < 0:"),
        # head taken from ``seen - 1``
        ("self._idx[seen % self._n_slots]",
         "self._idx[(seen - 1) % self._n_slots]"),
    ],
)
def test_row_formula_mutants_are_caught(monkeypatch, old, new):
    source = textwrap.dedent(inspect.getsource(FeatureTracker._extract))
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), vars(tracker_module), namespace)
    monkeypatch.setattr(FeatureTracker, "_extract", namespace["_extract"])
    for n_gaps in (5, 50):
        with pytest.raises(AssertionError):
            _check_rows_against_reference("numpy", n_gaps, COVERING_HISTORY)


# -- arena_summary: summed in row order, whatever order the map is in ---------


def test_arena_summary_does_not_depend_on_map_order():
    """The map of a capped tracker is in LRU order, an uncapped one's in
    insertion order, a recycled row sits out of either: all of them sum
    the same rows in ascending row order, to the last bit."""
    rng = np.random.default_rng(8)
    capped = FeatureTracker(n_gaps=3, max_objects=64)  # never reached
    plain, deferred = FeatureTracker(n_gaps=3), FeatureTracker(n_gaps=3)
    deferred.defer_updates(True)
    now = 0.0
    for i in range(900):
        now += float(rng.exponential(1.0))
        obj, cost = int(rng.zipf(1.4)) % 40, float(rng.uniform(0.1, 9.0))
        for tracker in (capped, plain, deferred):
            tracker.update(obj, now, cost)
        if i % 97 == 96:
            for tracker in (capped, plain, deferred):
                tracker.forget(i % 40)
    assert deferred._pending or _native.load() is None
    assert list(capped._rows) != list(plain._rows)  # LRU vs insertion
    assert dict(capped._rows) == dict(plain._rows)
    rows = np.sort(np.fromiter(plain._rows.values(), dtype=np.int64))
    assert not np.array_equal(rows, list(plain._rows.values()))
    last = plain._times[rows, (plain._seen[rows] - 1) % plain._n_slots]
    want = {
        "tracked": len(rows),
        "recency_mean": float(now - last.mean()),
        "cost_mean": float(plain._last_cost[rows].mean()),
    }
    for tracker in (
        capped, plain, deferred, copy.deepcopy(plain),
        pickle.loads(pickle.dumps(capped)),
    ):
        assert tracker.arena_summary(now) == want

"""Equivalence tests for the arena-backed feature tracker.

The arena (a dense time slab, one row per object ever recorded) must be
observationally identical to the straightforward per-object bookkeeping
it replaced.  A minimal reference implementation lives here, and the
tests drive both through randomised request streams — churn over many
objects and slab growth — and demand bit-identical feature vectors
throughout; every record path (``advance``, ``update``, a window's
deferred write) on both backends must leave the same arena.
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
from repro.obs import MetricsRegistry, use_registry
from repro.trace import Request, Trace
from tests.conftest import small_tracker


def record(tracker, request: Request) -> None:
    """``update`` takes the three scalars it stores."""
    tracker.update(request.obj, request.time, request.cost)


def columns(requests):
    """``features_batch``'s leading arguments for a list of requests."""
    trace = Trace(list(requests))
    return trace.objs.tolist(), trace.times, trace.sizes, trace.costs


class ReferenceTracker:
    """The pre-arena semantics: one ring buffer per tracked object."""

    def __init__(self, n_gaps: int) -> None:
        self.n_gaps = n_gaps
        self.state: dict[int, dict] = {}  # insertion order = first request

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
        st = self.state.setdefault(request.obj, {"times": [], "cost": 0.0})
        st["times"] = ([request.time] + st["times"])[: self.n_gaps + 1]
        st["cost"] = request.cost


def request_stream(n, n_objects, seed):
    rng = np.random.default_rng(seed)
    t = 0.0
    for _ in range(n):
        t += float(rng.exponential(1.0))
        obj = int(rng.integers(0, n_objects))
        size = int(rng.integers(1, 100))
        yield Request(t, obj, size, float(rng.uniform(0.5, 20.0))), rng


@pytest.mark.parametrize("n_gaps", [50, 3])
def test_bit_identical_to_reference_under_churn(n_gaps):
    tracker = FeatureTracker(n_gaps=n_gaps)
    reference = ReferenceTracker(n_gaps=n_gaps)
    rng = np.random.default_rng(n_gaps)
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


class TestFeaturesBatch:
    def _warm(self, n_gaps=5, seed=11, n=500):
        tracker = FeatureTracker(n_gaps=n_gaps)
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
def warm_tracker_and_window(draw):
    """A tracker warmed by a features/update loop (so object 0 usually
    holds ``n_gaps + 1`` recorded times) and the window that follows."""
    n_gaps = draw(st.integers(1, 5))
    tracker = FeatureTracker(n_gaps=n_gaps)
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
        tracker._next_row,
    )


def _loop_rows(tracker, window, free):
    """Rows of a features/update loop over ``window``."""
    rows = []
    for request in window:
        rows.append(tracker.features(request, free))
        record(tracker, request)
    return np.array(rows)


HOT_WINDOW = [Request(float(t // 3), t % 2, 10 + t % 7, 0.0) for t in range(300)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(warm_tracker_and_window())
@example((FeatureTracker(n_gaps=3), HOT_WINDOW))
def test_probe_rows_are_the_loops_rows_bitwise(case):
    tracker, window = case
    before = _state(tracker)
    X = tracker.features_batch(*columns(window), 4242)
    for was, now in zip(before, _state(tracker)):
        assert np.array_equal(was, now)  # arena, object map
    want = _loop_rows(copy.deepcopy(tracker), window, 4242)
    assert np.array_equal(X, want)  # bitwise: no allclose anywhere


def test_one_counter_is_head_and_count(monkeypatch):
    """``update`` keeps one counter per row; ring head and fill level
    derive from it.  Against the reference: each object's last time and
    cost, tracked count and growth across two doublings."""
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
        assert tracker.n_tracked == len(reference.state)
        rows = np.array([tracker._rows[obj] for obj in reference.state])
        head = (tracker._seen[rows] - 1) % tracker._n_slots
        assert tracker._times[rows, head].tolist() == [
            st["times"][0] for st in reference.state.values()
        ]
        assert tracker._last_cost[rows].tolist() == [
            st["cost"] for st in reference.state.values()
        ]
    assert len(tracker._seen) == 16  # 4 -> 8 -> 16 for 13 objects
    assert tracker._next_row == 13  # one row per object
    for obj in range(13):
        probe = Request(now + 1.0, obj, 10)
        assert np.array_equal(
            tracker.features(probe, 0), reference.features(probe, 0)
        )


# -- the native routines: gather == numpy == loop, window == immediate --------


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


def _arena(tracker):
    """Full arena state, decided records written first."""
    tracker.n_tracked
    window = tracker._window
    assert window is None or tracker._written == len(window[-1])
    return _state(tracker)


def open_window(tracker, requests, free=7):
    """Probe ``requests`` as the decision engine does: the list a
    decision is appended to (recording its request), and the rows."""
    decided = []
    return decided, tracker.features_window(*columns(requests), free, decided)


def _backends():
    """numpy always; the native module where it loads."""
    return ["numpy"] + (["native"] if _native.load() is not None else [])


def _assert_same_arena(left, right):
    for a, b in zip(_arena(left), _arena(right)):
        assert np.array_equal(a, b)


@st.composite
def churned_tracker_and_window(draw):
    """A tracker that grew from two rows, as built, deep-copied or
    unpickled, and the window probed next (objects 10.. are unseen;
    ``grow`` makes the window's own flush allocate).  Object 0 and 1
    dominate, so with ``n_gaps <= 3`` one object fills its ring many
    times inside one window."""
    n_gaps = draw(st.integers(1, 3))
    tracker = small_tracker(n_gaps)
    now = 0.0
    for obj, gap, _size, cost in draw(st.lists(_event, max_size=80)):
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
    want = _loop_rows(tracker, window, 4242)
    assert got.tobytes() == want.tobytes()


def test_probe_straight_after_growth_reads_the_new_arena(native):
    """The write a probe triggers may double the arena (here three
    times): the gather must take its addresses after that."""
    windowed, immediate = small_tracker(2), small_tracker(2)
    requests = [Request(float(t), t % 13, 10, 1.0 + t) for t in range(40)]
    decided, _ = open_window(windowed, requests)
    for request in requests:
        decided.append(True)
        record(immediate, request)
    assert len(windowed._seen) == 2 and windowed._written == 0
    window = [Request(40.0 + t, t % 17, 10, 2.0) for t in range(34)]
    assert np.array_equal(
        windowed.features_batch(*columns(window), 5),
        immediate.features_batch(*columns(window), 5),
    )
    assert len(windowed._seen) == 16
    _assert_same_arena(windowed, immediate)


_read = st.sampled_from(
    ["features", "advance", "batch", "n_tracked", "memory", "update",
     "open", "open", "cut", "copy", "pickle"]
)


def _windows_are_the_immediate_loop(n_gaps, stream):
    """Replay ``stream`` on a tracker that records through windows and
    on one that records each request with ``update``; compare every
    read and, at the end, the arenas.  ``"open"`` probes the requests
    up to the next ``"open"`` as one window, decided one by one as they
    come; ``"cut"`` leaves the window early (its caller stops deciding:
    the rest is recorded with ``update``)."""
    windowed, immediate = small_tracker(n_gaps), small_tracker(n_gaps)
    decided, todo, now = None, 0, 0.0
    for i, op in enumerate(stream):
        if isinstance(op, Request):
            now = op.time
            if todo:
                decided.append(True)
                todo -= 1
            else:
                record(windowed, op)
            record(immediate, op)
            continue
        probe = [Request(now + 1.0, obj, 10, 2.0) for obj in (0, 1, 0, 5, 11)]
        got = want = None
        if op == "features":
            got, want = (
                t.features(probe[0], 7) for t in (windowed, immediate)
            )
        elif op == "advance":
            # An object the next window may hold, new or not.
            extra = Request(now, i % 12, 10, 1.0)
            got = windowed.advance(extra, 7)
            want = immediate.features(extra, 7)
            record(immediate, extra)
        elif op == "batch":
            got, want = (
                t.features_batch(*columns(probe), 7)
                for t in (windowed, immediate)
            )
        elif op == "n_tracked":
            got, want = windowed.n_tracked, immediate.n_tracked
        elif op == "memory":
            got, want = (
                t.memory_bytes_naive() for t in (windowed, immediate)
            )
        elif op == "update":
            extra = Request(now, i % 12, 10, 1.0)
            record(windowed, extra)
            record(immediate, extra)
        elif op == "open":
            window = []
            for later in stream[i + 1:]:
                if later == "open":
                    break
                if isinstance(later, Request):
                    window.append(later)
            if window:
                decided, got = open_window(windowed, window)
                want = immediate.features_batch(*columns(window), 7)
                todo = len(window)
        elif op == "cut":
            todo = 0
        elif op == "copy":
            windowed, decided = copy.deepcopy((windowed, decided))
        else:
            windowed, decided = pickle.loads(pickle.dumps((windowed, decided)))
        assert np.array_equal(got, want), op
    _assert_same_arena(windowed, immediate)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.one_of(_event, _event, _event, _read), max_size=200),
)
def test_deferred_record_is_the_immediate_loop(n_gaps, ops):
    """No read sees an unwritten record: whatever is read, wherever —
    inside a window, after one cut short, around ``update`` and
    ``advance`` calls, across copies and pickles — the windowed tracker
    answers as the immediate one, and the arenas agree to the last field
    (rings that wrap inside one write, rows allocated and grown by the
    write, their order), on both backends."""
    now, stream = 0.0, []
    for op in ops:
        if isinstance(op, tuple):
            obj, gap, size, cost = op
            now += gap
            op = Request(now, obj, size, cost)
        stream.append(op)
    for name in _backends():
        with backend(name):
            _windows_are_the_immediate_loop(n_gaps, stream)


def test_records_deferred_elsewhere_are_written_without_the_module(native):
    """A tracker pickled with decided records unwritten and opened where
    the module cannot be built writes them with numpy stores."""
    windowed, immediate = small_tracker(2), small_tracker(2)
    requests = [Request(float(t), t % 4, 10, 0.5 * t) for t in range(30)]
    decided, _ = open_window(windowed, requests)
    for request in requests:
        decided.append(True)
        record(immediate, request)
    shipped = pickle.loads(pickle.dumps(windowed))
    with backend("numpy"):
        assert shipped._window is not None and shipped._written == 0
        _assert_same_arena(shipped, immediate)


def test_no_module_writes_the_window_with_numpy_stores(python_fallback):
    tracker = FeatureTracker(n_gaps=2)
    decided, _ = open_window(tracker, [Request(0.0, 1, 10, 1.0)] * 2)
    decided.append(True)
    assert tracker._seen[0] == 0 and tracker._window is not None
    assert tracker.n_tracked == 1 and tracker._seen[0] == 1
    decided.append(True)
    assert tracker.n_tracked == 1 and tracker._seen[0] == 2
    assert tracker._window is None and tracker._next_row == 1


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


def test_a_deferred_record_to_a_row_outside_the_arena_is_refused():
    """Before any write, on either backend: through the probe's row of a
    known object, and through the map's row of an object new to the
    window that an earlier write mapped.  A refused run is not skipped:
    the next read refuses it again, the arena still unwritten."""
    window = [Request(1.0, 7, 10), Request(2.0, 8, 10), Request(3.0, 8, 10)]
    for name in _backends():
        with backend(name):
            tracker = FeatureTracker(n_gaps=2)
            tracker.update(7, 0.0, 1.0)
            decided, _ = open_window(tracker, window)
            probed = tracker._window[3]
            probed[0] = len(tracker._seen)  # 7's probed row
            decided.append(True)
            before = _state(tracker)
            with pytest.raises(ValueError, match="outside the arena"):
                tracker.n_tracked
            for was, now in zip(before, _state(tracker)):
                assert np.array_equal(was, now)
            decided.append(True)
            with pytest.raises(ValueError, match="outside the arena"):
                tracker.n_tracked
            for was, now in zip(before[:3], _state(tracker)[:3]):
                assert np.array_equal(was, now)  # the arena arrays
            probed[0] = 0
            assert tracker.n_tracked == 2  # maps 8 to row 1
            tracker._rows[8] = -3
            decided.append(True)
            before = _state(tracker)
            with pytest.raises(ValueError, match="outside the arena"):
                tracker.n_tracked
            for was, now in zip(before, _state(tracker)):
                assert np.array_equal(was, now)


# -- the row formula: one ring read, one subtraction ---------------------------


def reference_extract(tracker, obj, time, size, cost, free_bytes):
    """``FeatureTracker._extract`` as it stood through PR 21 — a sliced
    read of the ``min(seen, n_gaps)`` valid slots, two slice fills, two
    subtractions — kept as the reference the one-read form must equal
    bitwise."""
    tracker.n_tracked  # decided records first, as every reader
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


#: One op of a history: a request (``_event``) or ``("burst", k)`` —
#: object 0 requested ``k`` more times, ties included, which is how a ring
#: of 51 slots gets past its second wrap.
_history_op = st.one_of(
    _event, _event, _event,
    st.tuples(st.just("burst"), st.integers(1, 40)),
)

#: Every row class at ``n_gaps`` 5 and 50 in one history: an unseen
#: object, ``seen`` = 1, 2, .. through two ring wraps of object 0 (ties
#: inside).
COVERING_HISTORY = (
    [(0, 1.0, 10, 1.0), (1, 0.5, 10, 2.0), (2, 0.0, 10, 0.0)]
    + [("burst", 1)] * 7
    + [(3, 7.0, 10, 3.5), (3, 0.0, 10, 1.0)]
    + [("burst", 40), ("burst", 40), ("burst", 30)]
)


def _check_rows_against_reference(name, n_gaps, ops):
    """Apply ``ops`` — each one record window, decided whole, so that a
    burst wraps rings inside one write — and compare every object's row,
    and an unseen object's, as the backend makes it (``tracker_row``, or
    ``_extract`` on numpy, from the object's arena row) with the
    reference after each op."""
    with backend(name):
        tracker = small_tracker(n_gaps)
        now = 0.0
        for op in ops:
            if op[0] == "burst":
                window = []
                for i in range(op[1]):
                    now += (0.0, 0.5, 3.0)[i % 3]
                    window.append(Request(now, 0, 10, float(i)))
            else:
                obj, gap, _size, cost = op
                now += gap
                window = [Request(now, obj, 10, cost)]
            decided, _ = open_window(tracker, window)
            decided.extend([True] * len(window))
            tracker.n_tracked  # decided records first, as every reader
            for obj in (*range(10), 99):
                probe = (now + 0.25, 7, 1.5, 1234)
                got = tracker._row(tracker._rows.get(obj, -1), -1, *probe)
                want = reference_extract(tracker, obj, *probe)
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



# -- advance: features then update, in one call --------------------------------


def _advance_is_the_loop(name, advanced, requests, free=4242):
    """Drive ``advanced`` with ``advance`` and a deep copy of it with
    ``features`` then ``update`` on backend ``name``; the rows, and after
    each request the arenas, object maps and ``n_tracked``, must agree
    bitwise."""
    looped = copy.deepcopy(advanced)
    with backend(name):
        for i, request in enumerate(requests):
            got = advanced.advance(request, free)
            want = looped.features(request, free)
            looped.update(request.obj, request.time, request.cost)
            assert got.tobytes() == want.tobytes(), (i, got, want)
            assert advanced.n_tracked == looped.n_tracked
            _assert_same_arena(advanced, looped)


#: Each advance test runs on the native backend and on numpy.
both_backends = pytest.mark.parametrize("name", ["native", "numpy"])


def _available(name):
    if name == "native" and _native.load() is None:
        pytest.skip("native module unavailable")


@both_backends
def test_advance_reads_before_it_records(name):
    """A new object, then the same object known: gap_1 is the distance
    to the previous request, not 0 (the request's own record)."""
    _available(name)
    tracker = FeatureTracker(n_gaps=3)
    requests = [Request(1.0, 5, 10, 2.0), Request(4.0, 5, 10, 3.0),
                Request(4.5, 6, 20, 1.0), Request(6.0, 5, 10, 0.5)]
    _advance_is_the_loop(name, tracker, requests)
    with backend(name):
        vec = tracker.advance(Request(7.0, 5, 10, 9.0), 0)
    assert vec[1] == 0.5 and vec[3:6].tolist() == [1.0, 2.0, 3.0]
    assert tracker._seen[tracker._rows[5]] == 4


@both_backends
def test_advance_through_ring_wraps(name):
    """Object 0 past its fourth ring wrap, ties included."""
    _available(name)
    requests = [Request(float(t // 2), 0, 10, float(t)) for t in range(17)]
    tracker = FeatureTracker(n_gaps=3)
    _advance_is_the_loop(name, tracker, requests)
    assert tracker._seen[tracker._rows[0]] == 17 > 4 * tracker._n_slots


@both_backends
def test_advance_grows_the_arena_inside_the_call(name):
    """The 1 025th object's row is allocated, by doubling the arena, in
    the call that reads it as unseen and records it."""
    _available(name)
    tracker = FeatureTracker(n_gaps=2)
    with backend(name):
        for obj in range(1024):
            tracker.advance(Request(float(obj), obj, 10, 1.0), 0)
    assert len(tracker._seen) == 1024
    requests = [Request(1024.0, 1024, 10, 2.0), Request(1025.0, 1024, 10, 3.0),
                Request(1026.0, 3, 10, 4.0)]
    _advance_is_the_loop(name, tracker, requests)
    assert len(tracker._seen) == 2048 and tracker._rows[1024] == 1024


@both_backends
@pytest.mark.parametrize("window", ["closed", "open"])
def test_advance_writes_pending_records_first(name, window):
    """Records an engine window left unwritten (the window decided
    whole, as ``DecisionEngine.step`` leaves it, or still open, two
    thirds decided) are written before the row is read."""
    _available(name)
    tracker, reference = small_tracker(2), small_tracker(2)
    requests = [Request(float(t), t % 5, 10, 0.5 * t) for t in range(30)]
    with backend(name):
        decided, _ = open_window(tracker, requests)
    decided.extend([True] * (30 if window == "closed" else 20))
    assert tracker._written == 0 and tracker._next_row == 0
    for request in requests[:len(decided)]:
        record(reference, request)
    requests = [Request(30.0 + t, t % 7, 10, 1.0) for t in range(12)]
    _advance_is_the_loop(name, tracker, requests)
    for request in requests:
        record(reference, request)
    _assert_same_arena(tracker, reference)


@both_backends
@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 3), st.lists(_event, min_size=1, max_size=120))
def test_advance_is_features_then_update(name, n_gaps, events):
    """Random streams from an arena of two rows that grows several
    times."""
    _available(name)
    tracker = small_tracker(n_gaps)
    now, requests = 0.0, []
    for obj, gap, size, cost in events:
        now += gap
        requests.append(Request(now, obj, size, cost))
    _advance_is_the_loop(name, tracker, requests)


@both_backends
def test_an_observed_advance_is_the_unobserved_one(name):
    """Under an active registry ``advance`` takes the same row routine:
    the same row bytes and the same arena as with the registry off, and
    one ``features.extract_seconds`` sample per call."""
    _available(name)
    requests = [Request(float(t), t % 7, 10, 1.0 + t % 3) for t in range(40)]
    plain, observed = small_tracker(2), small_tracker(2)
    registry = MetricsRegistry()
    with backend(name):
        for i, request in enumerate(requests, start=1):
            want = plain.advance(request, 4242)
            with use_registry(registry):
                got = observed.advance(request, 4242)
            assert got.tobytes() == want.tobytes(), i
            samples = registry.histogram("features.extract_seconds").count
            assert samples == i
            _assert_same_arena(observed, plain)

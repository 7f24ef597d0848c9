"""A probe window's objects resolve alike with and without the module.

``tracker_gather`` resolves a window's ids in C — each id's arena row
through the tracker's object → row dict, each in-window repeat's
previous position through a table local to the call — and writes the
rows column the record window keeps; ``tracker_map`` gives a flush's
unmapped objects their rows in first-occurrence order, inserting into
the same dict, all or nothing.  Their numpy twins (``_gather_numpy``,
``_map_numpy``) are the reference and what runs without a compiler.

Over generated and named windows — flushed part-way by the probes of a
sampled eviction plan, which write the decided prefix and leave the
window open — both backends must give the same probe matrices to the
byte, the same rows column, the same map in the same order and the same
arena after every flush; and each backend must answer as a tracker that
records every request at once with ``update``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace import Request
from tests.conftest import small_tracker
from tests.test_features_arena import backend

BIG = 2**63 - 1

#: Ids the windows draw from: 0, negatives, the ends of int64 and
#: neighbours whose hashes and low bits collide.
POOL = [0, 1, 2, 3, -1, -5, BIG, -BIG, 1 << 40, (1 << 40) + 1, 1 << 62]

#: What a sampled eviction plan probes between two decisions.
RESIDENTS = [0, -1, BIG, 1 << 40, 77]


@pytest.fixture(params=["native", "python_fallback"])
def either(request):
    """The test on one backend: the module as loaded, or none."""
    request.getfixturevalue(request.param)


def warm_tracker(warm):
    """A tracker whose arena starts at two rows, fed ``warm`` — ``(obj,
    time, cost)`` triples — with ``update``."""
    tracker = small_tracker(3)
    for obj, time, cost in warm:
        tracker.update(obj, time, cost)
    return tracker


def window_columns(objs, start):
    """``features_batch``'s leading columns for ``objs`` from time
    ``start``, one request a second (costs and sizes vary by position)."""
    n = len(objs)
    return (
        list(objs), start + np.arange(n, dtype=np.float64),
        10 + np.arange(n) % 7, 0.5 + np.arange(n) % 3,
    )


def _arena(tracker):
    return (
        list(tracker._rows.items()), tracker._next_row,
        tracker._times.tobytes(), tracker._seen.tobytes(),
        tracker._last_cost.tobytes(),
    )


def _eviction_probe(tracker, now):
    """The probe a sampled eviction plan makes: it writes the decided
    prefix of the open window first, and leaves the window open."""
    m = len(RESIDENTS)
    return tracker.features_batch(
        RESIDENTS, [now] * m, [10] * m, [1.0] * m, 7
    ).tobytes()


def replay(tracker, objs, cuts):
    """Probe ``objs`` as the decision engine does and decide them in
    order; at each cut, and at the end, a sampled eviction probe.  After
    the window probe and each eviction probe: the probe's matrix, the
    window's rows column and the map and arena."""
    columns = window_columns(objs, 100.0)
    decided: list[bool] = []
    X = tracker.features_window(*columns, 7, decided)
    rows = tracker._window[3] if tracker._window else np.empty(0, np.int64)
    states = [(X.tobytes(), rows.tobytes(), _arena(tracker))]
    for cut in [*sorted(cuts), len(objs)]:
        decided.extend([True] * (cut - len(decided)))
        probe = _eviction_probe(tracker, 100.0 + cut)
        states.append((probe, rows.tobytes(), _arena(tracker)))
    assert tracker._window is None
    return states


def immediate(tracker, objs, cuts):
    """:func:`replay` on a tracker that records each request with
    ``update`` as it is decided (no rows column), every matrix made row
    by row with ``features`` — the loop the probes stand in for."""
    requests = [
        Request(time, obj, size, cost)
        for obj, time, size, cost in zip(*window_columns(objs, 100.0))
    ]
    ahead, X = copy.deepcopy(tracker), []
    for request in requests:
        X.append(ahead.features(request, 7))
        ahead.update(request.obj, request.time, request.cost)
    X = np.array(X).reshape(len(requests), tracker.n_features)
    states = [(X.tobytes(), _arena(tracker))]
    done = 0
    for cut in [*sorted(cuts), len(objs)]:
        for request in requests[done:cut]:
            tracker.update(request.obj, request.time, request.cost)
        done = cut
        probe = np.array([
            tracker.features(Request(100.0 + cut, obj, 10, 1.0), 7)
            for obj in RESIDENTS
        ])
        states.append((probe.tobytes(), _arena(tracker)))
    return states


WARM = [(obj, float(t), 1.0 + t % 4) for t, obj in enumerate(
    [0, 1, 0, -1, BIG, 0, 2, -1, 0, 1 << 40, 0, 0]
)]

#: name -> (warm requests, window, cuts)
WINDOWS = {
    "empty": (WARM, [], []),
    "all unseen": (WARM, [20, 21, 22, 23, 24, 25], [2, 3]),
    "all known": (WARM, [0, 1, -1, BIG, 2, 1 << 40], [4]),
    "an unseen object thrice": (WARM, [30, 0, 30, 1, 30], [1, 3]),
    "chains of repeats": (
        WARM, [0, 0, 0, 1, 0, 1, 1, 31, 31, 31, 0, 32, 31, 32], [5, 9],
    ),
    "ids 0, negative and the ends of int64": (
        [], [0, -1, BIG, -BIG, 0, BIG, -BIG, -7, -1, -7], [3],
    ),
    "flushed part-way, new objects on both sides of each cut": (
        WARM, [40, 0, 41, 40, 42, 41, 0, 43, 42, 44, 40], [1, 2, 4, 8, 10],
    ),
}


@pytest.mark.parametrize("name", list(WINDOWS))
def test_each_backend_is_the_immediate_loop(either, name):
    warm, objs, cuts = WINDOWS[name]
    tracker = warm_tracker(warm)
    mapped = dict(tracker._rows)
    want = immediate(warm_tracker(warm), objs, cuts)
    got = replay(tracker, objs, cuts)
    assert [(X, arena) for X, _, arena in got] == want
    # The probe's rows column: each known object's row, -1 for the rest;
    # once written, every request's row.
    column = np.frombuffer(got[0][1], dtype=np.int64).tolist()
    assert column == [mapped.get(obj, -1) for obj in objs]
    column = np.frombuffer(got[-1][1], dtype=np.int64).tolist()
    assert column == [tracker._rows[obj] for obj in objs]


@st.composite
def warm_window_cuts(draw):
    ids = st.sampled_from(POOL + [50, 51, 52])
    warm = [
        (obj, float(t), float(draw(st.sampled_from([0.5, 1.0, 3.0]))))
        for t, obj in enumerate(draw(st.lists(ids, max_size=40)))
    ]
    objs = draw(st.lists(ids, max_size=80))
    cuts = draw(st.lists(st.integers(0, len(objs)), max_size=4))
    return warm, objs, cuts


@settings(max_examples=80, derandomize=True, deadline=None)
@given(warm_window_cuts())
@example(WINDOWS["chains of repeats"])
@example(WINDOWS["flushed part-way, new objects on both sides of each cut"])
def test_native_resolution_is_the_numpy_twin(native, case):
    warm, objs, cuts = case
    tracker = warm_tracker(warm)
    twin = copy.deepcopy(tracker)
    got = replay(tracker, objs, cuts)
    with backend("numpy"):
        want = replay(twin, objs, cuts)
    assert got == want


def test_a_refused_flush_maps_no_object(either):
    """An object mapped since the probe, to a row outside the arena, is
    refused before the flush hands out a row: the unmapped objects ahead
    of it in the run stay unmapped, and the rows column stays as the
    probe left it."""
    tracker = warm_tracker(WARM)
    objs = [60, 0, 61, 60, 62]
    decided: list[bool] = []
    tracker.features_window(*window_columns(objs, 100.0), 7, decided)
    rows = tracker._window[3]
    tracker._rows[62] = tracker._next_row + 3
    before = (list(tracker._rows.items()), tracker._next_row, rows.tobytes())
    decided.extend([True] * len(objs))
    with pytest.raises(ValueError, match="tracked row outside the arena"):
        tracker.n_tracked
    assert (
        list(tracker._rows.items()), tracker._next_row, rows.tobytes()
    ) == before


def test_ids_other_than_a_list_of_ints_are_converted_once(either):
    """An id column that is not a list (an array) is converted with
    ``operator.index`` before either backend resolves it, and a list of
    numpy integers where the C pass refuses it: both probe and record as
    a list of ints does."""
    objs = [0, 70, -1, 70]
    _, times, sizes, costs = window_columns(objs, 100.0)
    want = warm_tracker(WARM)
    X = want.features_window(objs, times, sizes, costs, 7, [True] * 4)
    assert want.n_tracked == 7  # the window written
    array = np.array(objs, dtype=np.int64)
    for ids in (array, list(array)):
        tracker = warm_tracker(WARM)
        got = tracker.features_window(ids, times, sizes, costs, 7, [True] * 4)
        assert tracker.n_tracked == 7
        assert got.tobytes() == X.tobytes()
        assert _arena(tracker) == _arena(want)

"""The decision engine's record window leaves the scalar loop's arena.

``DecisionEngine.step`` probes each window with
``FeatureTracker.features_window`` and calls nothing per decision: the
tracker writes the decided records before its next read.  Against
``policy.on_request`` per request (which records in ``advance``), on
both tracker backends: the arena after a run — slab bytes, ``seen``,
last costs, the object → row map in order and the next free row — and,
with sampled eviction, every eviction probe's rows, which read the
window's prefix in the middle of the window.
"""

from dataclasses import replace
from itertools import count

import numpy as np
import pytest

from repro.core import DecisionEngine, LFOCache, LFOModel, SampledEvictionConfig
from repro.features import Dataset, feature_names
from repro.features import tracker as tracker_module
from repro.gbdt import GBDTParams
from repro.trace import Request, SyntheticConfig, Trace, generate_trace

N_GAPS = 4

#: Each test runs with the native module as loaded and without it.
backends = pytest.mark.parametrize("backend", ["native", "python_fallback"])


@pytest.fixture(scope="module")
def model():
    """Splits on size, cost, free bytes and the last gap."""
    rng = np.random.default_rng(0)
    X = np.zeros((3000, 3 + N_GAPS))
    X[:, 0] = rng.integers(1, 160, size=len(X))
    X[:, 1] = X[:, 0] * rng.integers(0, 2, size=len(X))
    X[:, 2] = rng.integers(0, 400, size=len(X))
    X[:, 3:] = rng.exponential(5, size=(len(X), N_GAPS))
    y = ((X[:, 0] < 60) ^ (X[:, 2] % 97 < 30) ^ (X[:, 3] < 2)).astype(float)
    return LFOModel.train(
        Dataset(X, y, feature_names(N_GAPS)), GBDTParams(num_iterations=8)
    )


def requests_of(n, n_objects, seed=3):
    return list(generate_trace(SyntheticConfig(
        n_requests=n, n_objects=n_objects, size_median=40.0, size_max=150,
        seed=seed,
    )))


def columns(requests):
    trace = Trace(requests)
    return trace.times, trace.objs, trace.sizes, trace.costs


def arena(policy):
    """The tracker's whole state, read as a reader sees it."""
    tracker = policy.tracker
    tracker.n_tracked  # decided records are written before any read
    return (
        tracker._times.tobytes(), tracker._seen.tolist(),
        tracker._last_cost.tolist(), list(tracker._rows.items()),
        tracker._next_row,
    )


def scalar(policy, requests):
    """The reference: ``on_request`` per request; the hits."""
    return [policy.on_request(request) for request in requests]


def probes(policy):
    """Capture the rows of every eviction probe ``policy`` scores."""
    seen, inner = [], policy._score_rows

    def score_rows(matrix):
        seen.append(matrix.tobytes())
        return inner(matrix)

    policy._score_rows = score_rows
    return seen


@backends
def test_a_swap_between_steps_keeps_the_scalar_arena(request, backend, model):
    """A model swapped in between the second and third steps, as drivers
    swap one: after every step the arena is the scalar loop's after as
    many requests, the scalar loop swapping at the same request."""
    request.getfixturevalue(backend)
    requests = requests_of(400, 60)
    policy = LFOCache(300, model, n_gaps=N_GAPS)
    engine = DecisionEngine(policy, max_window=64)
    reference = LFOCache(300, model, n_gaps=N_GAPS)
    cols = columns(requests)
    hits = [None] * len(requests)
    start = 0
    while start < len(requests):
        if start == 128:
            swapped = replace(model)
            policy.set_model(swapped)
            reference.set_model(swapped)
        consumed = engine.step(*cols, start, hits)
        assert consumed == min(64, len(requests) - start)
        want = scalar(reference, requests[start:start + consumed])
        assert hits[start:start + consumed] == want
        assert arena(policy) == arena(reference), start
        start += consumed


@backends
def test_sampled_eviction_probes_read_the_decided_prefix(
    request, backend, model
):
    """Each eviction probe inside a window writes the prefix decided so
    far and reads exactly what the scalar loop's probe reads."""
    request.getfixturevalue(backend)
    requests = requests_of(1500, 120, seed=5)

    def policy():
        return LFOCache(
            400, model, n_gaps=N_GAPS, eviction="sampled",
            sampled=SampledEvictionConfig(k=4, seed=3),
        )

    batched, looped = policy(), policy()
    batched_probes, looped_probes = probes(batched), probes(looped)
    hits = DecisionEngine(batched).run(*columns(requests))
    assert hits == scalar(looped, requests)
    assert len(batched_probes) > 100
    assert batched_probes == looped_probes
    assert arena(batched) == arena(looped)


@backends
def test_new_objects_grow_the_arena_inside_one_write(
    request, backend, model, monkeypatch
):
    """Windows of objects never seen before — each new object repeated
    inside its window too — from an arena of two rows: one write maps a
    block of new objects in first-occurrence order and doubles the arena
    several times."""
    request.getfixturevalue(backend)
    monkeypatch.setattr(tracker_module, "_INITIAL_CAPACITY", 2)
    requests = []
    for t in range(600):
        obj = t // 3 if t % 3 != 2 else (t // 3) // 2
        requests.append(Request(float(t), obj, 10 + obj % 50, float(obj % 7)))
    batched = LFOCache(500, model, n_gaps=N_GAPS)
    looped = LFOCache(500, model, n_gaps=N_GAPS)
    engine = DecisionEngine(batched, max_window=128)
    cols = columns(requests)
    engine.step(*cols, 0, [None] * len(requests))
    scalar(looped, requests[:128])
    # 128 requests of 43 objects new to the window and the tracker:
    # 2 -> 4 -> ... -> 64 rows in the one write.
    assert len(batched.tracker._seen) == 2
    assert arena(batched) == arena(looped)
    assert len(batched.tracker._seen) == 64
    hits = engine.run(*cols)
    assert hits == scalar(LFOCache(500, model, n_gaps=N_GAPS), requests)


@backends
def test_apply_scored_raising_mid_window_leaves_the_decided_prefix(
    request, backend, model
):
    """A decision that raises is not recorded, and nothing after it is:
    the arena holds the requests decided before it, as the scalar loop's
    after them."""
    request.getfixturevalue(backend)
    requests = requests_of(300, 40)
    policy = LFOCache(300, model, n_gaps=N_GAPS)
    inner, calls = policy.apply_scored, count(1)

    def apply_scored(*args):
        if next(calls) == 200:
            raise RuntimeError("decision failed")
        return inner(*args)

    policy.apply_scored = apply_scored
    with pytest.raises(RuntimeError, match="decision failed"):
        DecisionEngine(policy, max_window=128).run(*columns(requests))
    reference = LFOCache(300, model, n_gaps=N_GAPS)
    scalar(reference, requests[:199])
    assert arena(policy) == arena(reference)


def test_a_replay_makes_no_per_decision_tracker_call():
    """The engine records through the window alone: ``update`` is never
    reached from a replay, yet every request is recorded."""
    requests = requests_of(200, 30)
    policy = LFOCache(300, None, n_gaps=N_GAPS)
    tracker, calls = policy.tracker, []
    inner = tracker.update
    tracker.update = lambda *args: calls.append(args) or inner(*args)
    DecisionEngine(policy, max_window=64).run(*columns(requests))
    assert calls == []
    # Each window was written by the next one's probe; the last, 200 -
    # 3 * 64 = 8 requests, waits for a read.
    assert int(tracker._seen.sum()) == 192
    assert tracker.n_tracked == len({r.obj for r in requests})
    assert int(tracker._seen.sum()) == len(requests)

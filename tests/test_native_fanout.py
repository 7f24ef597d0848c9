"""``repro._native.fan_out`` / ``start``: the serial map, shared with
idle cores, and the training job's reservation of the serving core."""

import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import _native
from repro.core import WindowTrainer
from repro.gbdt import GBDTClassifier, GBDTParams
from repro.gbdt.boosting import bin_matrix
from repro.resilience import SimulatedTrainerExecutor
from repro.trace import Request


@pytest.fixture
def width(monkeypatch):
    """``width(h)``: pretend the host has ``h + 1`` cores, on a fresh pool
    (shut down afterwards)."""
    made = []

    def set_width(helpers):
        monkeypatch.setattr(
            _native.os, "sched_getaffinity", lambda _pid: range(helpers + 1)
        )
        monkeypatch.setattr(_native, "_pool", None)
        made.append(True)

    yield set_width
    pool = _native._pool
    if made and pool is not None:
        pool.shutdown(wait=True)


def _square(x):
    return x * x


def _together(parallel):
    """A wait for items 0 and 1 that passes only with both at work (a
    no-op on the serial path)."""
    barrier = threading.Barrier(2, timeout=10)
    return lambda i: i < 2 and parallel and barrier.wait()


def _threads_used(parallel, n_items):
    """Run ``n_items`` sleeping items; the threads that ran them."""
    names = [None] * n_items
    together = _together(parallel)

    def item(i):
        together(i)
        time.sleep(0.002)
        names[i] = threading.current_thread().name
        return -i

    assert _native.fan_out(item, range(n_items)) == [-i for i in range(n_items)]
    return names


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_results_equal_the_serial_map(width, helpers):
    """Without the native module (CI's no-native leg) every width is the
    serial loop on the caller."""
    width(helpers)
    parallel = helpers > 0 and _native.load() is not None
    items = list(range(23))
    assert _native.fan_out(_square, items) == [_square(i) for i in items]
    assert _native.fan_out(_square, []) == []
    assert _native.fan_out(_square, [5]) == [25]
    names = _threads_used(parallel, 12)
    assert 1 <= len(set(names)) <= helpers + 1
    if parallel:
        assert threading.current_thread().name in names
        assert any(name.startswith("repro-helper") for name in names)
    else:
        assert _native._pool is None


def test_every_item_is_claimed_once_under_thread_churn(native, width):
    """More threads than cores, a switch every microsecond: a lost or
    doubled claim on the shared index shows as a missing or repeated
    call."""
    width(7)
    calls = []

    def item(i):
        calls.append(i)
        return i * 3

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        began = time.perf_counter()
        for _ in range(20):
            calls.clear()
            assert _native.fan_out(item, range(500)) == [i * 3 for i in range(500)]
            assert sorted(calls) == list(range(500))
        assert time.perf_counter() - began < 30
    finally:
        sys.setswitchinterval(interval)


def test_lowest_failing_index_wins_after_started_items_finish(width):
    width(1)
    parallel = _native.load() is not None
    started, finished = set(), set()
    together = _together(parallel)

    def item(i):
        started.add(i)
        together(i)
        if i in (1, 3):
            raise ValueError(i)
        time.sleep(0.01)
        finished.add(i)
        return i

    with pytest.raises(ValueError) as raised:
        _native.fan_out(item, range(6))
    assert raised.value.args == (1,)
    # Claims go on past a failure, serial or shared.
    assert started == set(range(6))
    assert finished == {0, 2, 4, 5}


def test_nested_fan_out_on_a_helper_runs_serially(native, width):
    width(1)
    inner_threads = {}
    together = threading.Barrier(2, timeout=10)

    def outer(i):
        together.wait()
        me = threading.current_thread().name
        names = _native.fan_out(
            lambda _j: threading.current_thread().name, range(4)
        )
        inner_threads[me] = set(names)
        return i

    done = []
    runner = threading.Thread(
        target=lambda: done.append(_native.fan_out(outer, range(2)))
    )
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive() and done == [[0, 1]]
    helper = [name for name in inner_threads if name.startswith("repro-helper")]
    assert len(helper) == 1
    assert inner_threads[helper[0]] == {helper[0]}


def test_serial_without_the_native_module_or_a_second_core(
    monkeypatch, width
):
    _native.load()
    loaded = _native._state
    width(3)
    monkeypatch.setenv("REPRO_GBDT_NO_CC", "1")
    monkeypatch.setattr(_native, "_state", None)  # load() builds again
    assert _native.load() is None
    assert set(_threads_used(False, 6)) == {threading.current_thread().name}
    assert _native._pool is None
    monkeypatch.setattr(_native, "_state", loaded)
    width(0)  # one core
    assert set(_threads_used(False, 6)) == {threading.current_thread().name}
    assert _native._pool is None


def _in_child(queue):
    had_pool = _native._pool is not None
    queue.put((had_pool, _native.fan_out(_square, range(9))))


def test_a_forked_child_fans_out_on_its_own_pool(native, width):
    width(1)
    _threads_used(True, 4)
    assert _native._pool is not None
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_in_child, args=(queue,))
    child.start()
    try:
        had_pool, squares = queue.get(timeout=30)
    finally:
        child.join(timeout=30)
    assert child.exitcode == 0
    assert not had_pool
    assert squares == [_square(i) for i in range(9)]


@pytest.mark.parametrize("helper", ["free", "busy", "none"])
def test_start_runs_its_call_exactly_once(width, helper):
    width(0 if helper == "none" else 1)
    calls = []
    release = threading.Event()
    blocker = None
    if helper == "busy":
        blocker = _native.start(release.wait, 10)
    handle = _native.start(lambda x: calls.append(x) or len(calls), 7)
    if helper == "none":
        assert calls == []  # deferred to result()
    assert handle.result() == [1]
    release.set()
    if blocker is not None:
        assert blocker.result() == [True]
    if _native._pool is not None:
        _native._pool.shutdown(wait=True)
    assert calls == [7]


def test_start_raises_the_calls_exception(width):
    width(1)

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        _native.start(boom).result()


def test_a_job_beside_the_serving_thread_reserves_one_core():
    seen = []

    def job(requests, features, name, deployed):
        seen.append(_native.reservation.cores)

    def close_one_window(**supervision):
        trainer = WindowTrainer(1, job, lambda model: None, **supervision)
        trainer.record([Request(0.0, 1, 1)], np.zeros((1, 3)))
        trainer.close()

    with ThreadPoolExecutor(1) as pool:
        close_one_window(background=True, executor=pool)
    close_one_window(background=False)
    close_one_window(background=True, executor=SimulatedTrainerExecutor())
    assert seen == [1, 0, 0]
    assert _native.reservation.cores == 0  # this thread ran the inline jobs


def test_fit_takes_only_the_binning_of_its_own_matrix():
    rng = np.random.default_rng(1)
    X = rng.random((300, 4))
    y = (X[:, 0] + rng.random(300) > 1.0).astype(float)
    params = GBDTParams(num_iterations=4)
    plain = GBDTClassifier(params).fit(X, y)
    handed = GBDTClassifier(params).fit(
        X, y, binning=bin_matrix(X, params.max_bins)
    )
    assert plain.compiled().to_bytes() == handed.compiled().to_bytes()
    with pytest.raises(ValueError, match="binning"):
        GBDTClassifier(params).fit(X, y, binning=bin_matrix(X.copy(), 255))
    with pytest.raises(ValueError, match="binning"):
        GBDTClassifier(params).fit(X, y, binning=bin_matrix(X, 63))

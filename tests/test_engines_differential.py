"""One differential suite: every engine decides like the scalar loop.

``policy.on_request`` per request is the reference.  Against it, on
hypothesis-generated traces (objects larger than the cache, zero cost,
timestamp ties, one hot key, a cache of a few objects, a bucket drift
ahead of an in-window repeat, a cap eviction ahead of one, an eviction
probe of objects updated earlier in its window) x eviction
mode x capped/uncapped tracker: ``simulate(batch_size=N)``, ``BatchScorer`` over
a retraining ``LFOOnline`` (training inline and submitted), and one
``DecisionEngine`` per shard over
``HashRing.partition`` — its requests through the cluster's wire records
— with a cold -> warm model attach.  Equal means equal hit vectors and
equal digests of every score that reached ``apply_scored``;
``used_bytes <= cache_size`` is checked on every run.
"""

import struct
from dataclasses import replace
from hashlib import blake2b
from itertools import count

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import HashRing
from repro.cluster.wire import pack_requests, unpack_requests
from repro.core import (
    AdaptiveLFOOnline, DecisionEngine, LFOCache, LFOModel, LFOOnline,
    OptLabelConfig, SampledEvictionConfig,
)
from repro.features import Dataset, FeatureTracker, feature_names
from repro.gbdt import GBDTParams
from repro.resilience import (
    FaultPlan, FaultSpec, SimulatedTrainerExecutor, use_fault_plan,
)
from repro.serve import BatchScorer
from repro.sim import policy_factories, simulate
from repro.trace import Request, SyntheticConfig, Trace, generate_trace

N_GAPS = 4
SAMPLED = SampledEvictionConfig(k=4, seed=3)


@pytest.fixture(scope="module")
def model():
    """Splits on size, cost, free bytes and the last gap, so admission,
    bucket drift, the probe's in-window shift (gaps and cost) and
    dirty-row rescoring all change outcomes."""
    rng = np.random.default_rng(0)
    X = np.zeros((3000, 3 + N_GAPS))
    X[:, 0] = rng.integers(1, 160, size=len(X))
    X[:, 1] = X[:, 0] * rng.integers(0, 2, size=len(X))
    X[:, 2] = rng.integers(0, 400, size=len(X))
    X[:, 3:] = rng.exponential(5, size=(len(X), N_GAPS))
    y = (
        (X[:, 0] < 60) ^ (X[:, 1] > 15) ^ (X[:, 2] % 97 < 30) ^ (X[:, 3] < 2)
    ).astype(float)
    return LFOModel.train(
        Dataset(X, y, feature_names(N_GAPS)), GBDTParams(num_iterations=8)
    )


@st.composite
def traces(draw):
    """``(requests, cache_size)``: fixed per-object sizes, time ties, all
    costs zero or cost = size, objects drawn with a skew to object 0."""
    sizes = draw(st.lists(st.integers(1, 150), min_size=1, max_size=24))
    zero_cost = draw(st.booleans())
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, len(sizes) - 1) | st.just(0),
            st.sampled_from([0.0, 0.0, 0.5, 1.0, 7.0]),
        ),
        min_size=30, max_size=220,
    ))
    now, requests = 0.0, []
    for obj, gap in steps:
        now += gap
        cost = 0.0 if zero_cost else sizes[obj]
        requests.append(Request(now, obj, sizes[obj], cost))
    return requests, draw(st.integers(1, 400))


HOT_KEY = ([Request(float(t // 3), 0, 40) for t in range(120)], 100)
TOO_LARGE = (
    [Request(float(t), t % 5, 30 if t % 5 else 500, 0.0) for t in range(90)],
    70,
)


# Every second request admits a new small object into a nearly full cache
# (the free bytes leave their bucket) and the next one repeats object 0,
# whose row the probe shifted: the re-scored chunk has to score that
# shifted row under the new free bytes, not a fresh extraction.
DRIFT_THEN_REPEAT = (
    [
        Request(t * 0.5, 0, 40) if t % 2 == 0
        else Request(t * 0.5, 1 + (t // 2) % 9, 20 + (t // 2) % 4 * 7)
        for t in range(160)
    ],
    150,
)
# With the capped legs' three tracked objects, 0 is capped away by the
# time it returns, returns twice in a row, and 1 and 2 follow suit — all
# inside one lookahead window.
_CAP_SIZES = [40, 30, 25, 35, 20, 45]
CAP_EVICTS_THEN_REPEATS = (
    [
        Request(float(t), obj, _CAP_SIZES[obj])
        for t, obj in enumerate([0, 1, 2, 3, 0, 0, 1, 4, 0, 2, 2, 5] * 10)
    ],
    120,
)


# One object's retrieval cost changes from request to request: a repeat's
# cost feature is what the previous request of the object carried.
COST_CHANGES = (
    [
        Request(t * 0.5, t % 3, 30 + 10 * (t % 3), (t * 7 % 4) * 10.0)
        for t in range(150)
    ],
    100,
)


# Two of four residents are requested again and then a new object is
# admitted into the full cache, forty times inside one lookahead window:
# each sampled eviction plan probes residents whose latest request is a
# record of this very window, so their gap_1 is right only if the
# deferred records were written before the probe read the arena.
_rounds = [
    [(r % 4, 25 + 5 * (r % 4)), ((r + 1) % 4, 25 + 5 * ((r + 1) % 4)),
     (10 + r, 20 + (10 + r) % 3 * 15)]
    for r in range(40)
]
EVICTION_PROBES_A_WINDOW_UPDATE = (
    [
        Request(0.5 * (t + 1), obj, size)
        for t, (obj, size) in enumerate(sum(_rounds, []))
    ],
    130,
)


def outcome(policy, drive):
    """``(hits, score digest)`` of ``drive(policy)``.  The score tap (the
    whole test-local reference): hash what reaches ``apply_scored``."""
    digest, inner = blake2b(digest_size=16), policy.apply_scored

    def apply_scored(time, obj, size, cost, features, score):
        digest.update(struct.pack("<d", score))
        return inner(time, obj, size, cost, features, score)

    policy.apply_scored = apply_scored
    hits = [bool(hit) for hit in drive(policy)]
    assert policy.used_bytes <= policy.cache_size
    return hits, digest.hexdigest()


def columns(requests):
    """What the engine takes: ``(times, objs, sizes, costs)``."""
    trace = Trace(requests)
    return trace.times, trace.objs, trace.sizes, trace.costs


def scalar(requests):
    return lambda policy: [policy.on_request(r) for r in requests]


def served(requests, max_batch, chunk):
    def drive(policy):
        scorer = BatchScorer(policy, max_batch=max_batch)
        return [
            hit
            for start in range(0, len(requests), chunk)
            for hit in scorer.process(requests[start:start + chunk])
        ]
    return drive


def attach_between(model, cold, warm, run):
    """What a shard sees: a model attached at a batch edge."""
    def drive(policy):
        engine = DecisionEngine(policy)
        hits = run(engine, policy, cold)
        policy.set_model(model)
        return hits + run(engine, policy, warm)
    return drive


@pytest.mark.parametrize("eviction", ["likelihood", "lru", "sampled"])
@pytest.mark.parametrize("capped", [False, True])
@settings(max_examples=20, derandomize=True, deadline=None)
@given(traces())
@example(HOT_KEY)
@example(TOO_LARGE)
@example(DRIFT_THEN_REPEAT)
@example(CAP_EVICTS_THEN_REPEATS)
@example(COST_CHANGES)
@example(EVICTION_PROBES_A_WINDOW_UPDATE)
def test_every_engine_matches_the_scalar_loop(model, eviction, capped, case):
    requests, cache_size = case
    cap = 3 if capped else 0

    def static(size=cache_size, model=model):
        tracker = FeatureTracker(n_gaps=N_GAPS, max_objects=cap)
        return LFOCache(
            size, model, tracker=tracker, eviction=eviction, sampled=SAMPLED
        )

    def online(background):
        policy = LFOOnline(
            cache_size, window=40, gbdt_params=GBDTParams(num_iterations=3),
            n_gaps=N_GAPS, min_positive_labels=1,
            label_config=OptLabelConfig(mode="greedy"), eviction=eviction,
            sampled=SAMPLED, background=background,
            executor=SimulatedTrainerExecutor() if background else None,
        )
        policy.tracker.max_objects = cap
        policy.set_model(model)
        return policy

    def trained(policy, drive):
        result = outcome(policy, drive)
        policy.finish_training()  # a window closed by the last request
        return result, policy.n_retrains

    reference = outcome(static(), scalar(requests))
    for batch_size in (1, 7, 256):
        seen = []
        assert reference == outcome(static(), lambda policy: simulate(
            Trace(requests), policy, batch_size=batch_size,
            on_request=lambda index, _hit: seen.append(index),
        ).hits), f"simulate(batch_size={batch_size})"
        assert seen == list(range(len(requests)))

    # Where the training job runs is one more engine input: on the
    # caller's thread at the window edge, or submitted and polled.
    reference = trained(online(False), scalar(requests))
    assert reference == trained(online(True), scalar(requests))
    for background in (False, True):
        assert reference == trained(
            online(background), served(requests, 256, 64)
        )
        assert reference == trained(
            online(background), served(requests, 7, 50)
        )

    for bucket in HashRing(2, seed=7).partition(requests):
        split = [request for _index, request in bucket]
        wired = unpack_requests(pack_requests(bucket))
        third = len(split) // 3
        shard_size = max(1, cache_size // 2)
        assert outcome(static(shard_size, None), attach_between(
            model, split[:third], split[third:],
            lambda _e, policy, part: scalar(part)(policy),
        )) == outcome(static(shard_size, None), attach_between(
            model,
            [column[:third] for column in wired],
            [column[third:] for column in wired],
            lambda engine, _p, part: engine.run(*part),
        )), "shard engine over the wire"


@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("lands_at", [None, 37, 150])
def test_cold_windows_match_the_scalar_loop(model, capped, lands_at):
    """No model yet: the engine's cold windows (every score 0.0, live free
    bytes patched row by row) decide and record exactly what the scalar
    loop does — hits, scores, and the bytes of every training window —
    also when a model lands after a mid-window poll."""
    requests = list(generate_trace(SyntheticConfig(
        n_requests=900, n_objects=80, size_median=40.0, size_max=150, seed=11,
    )))

    def run(drive):
        policy = LFOOnline(
            600, window=300, gbdt_params=GBDTParams(num_iterations=3),
            n_gaps=N_GAPS, min_positive_labels=1,
            label_config=OptLabelConfig(mode="greedy"),
        )
        policy.tracker.max_objects = 3 if capped else 0
        polls, poll = count(1), policy.poll_training

        def poll_training():
            poll()
            if next(polls) == lands_at:
                policy.set_model(model)

        rows, job = [], policy.trainer.job

        def recording(requests, features, name):
            rows.append(features.tobytes())
            return job(requests, features, name)

        policy.poll_training = poll_training
        policy.trainer.job = recording
        return outcome(policy, drive), rows, policy.n_retrains

    reference = run(scalar(requests))
    assert reference[2] == 3
    assert reference == run(served(requests, 256, 64))
    assert reference == run(served(requests, 7, 50))


def test_drift_retrains_on_every_serving_path():
    """``AdaptiveLFOOnline``'s early retrain fires from the post-decision
    hook both paths call: the scorer retrains at the same request as the
    scalar loop (regression: it never checked drift at all).  Here the
    detector fires at checks inside windows (the gap features of a warm
    cache, then a shift to large objects), so models install mid-window,
    under in-flight speculated scores."""
    rng = np.random.default_rng(4)
    requests = [
        Request(float(t), int(obj), 20 + int(obj) % 20)
        for t, obj in enumerate(rng.integers(0, 60, size=900))
    ] + [
        Request(900.0 + t, int(obj), 200 + int(obj) % 150)
        for t, obj in enumerate(rng.integers(100, 160, size=900))
    ]

    def run(drive):
        policy = AdaptiveLFOOnline(
            3000, window=600, check_interval=100, min_retrain_size=100,
            gbdt_params=GBDTParams(num_iterations=3), n_gaps=N_GAPS,
            min_positive_labels=1, label_config=OptLabelConfig("greedy"),
        )
        windows, job = [], policy.trainer.job

        def recording(requests, features, name):
            windows.append(len(requests))
            return job(requests, features, name)

        policy.trainer.job = recording
        return outcome(policy, drive), windows, policy.n_drift_retrains

    reference = run(scalar(requests))
    _, windows, n_drift_retrains = reference
    assert n_drift_retrains >= 1
    assert any(size < 600 for size in windows)  # one closed early
    assert reference == run(served(requests, 256, 64))
    assert reference == run(served(requests, 7, 50))


def test_batch_scorer_under_a_hung_trainer(model):
    """The watchdog counts requests through ``poll``, and its deadline is
    one request past a window edge: a request polled twice (or never)
    moves the cancel across the edge and changes which windows train.
    Releasing the first hung job mid-window makes its model install under
    in-flight speculated scores."""
    trace = generate_trace(
        SyntheticConfig(n_requests=4000, n_objects=300, seed=7)
    )
    requests = list(trace)

    def run(drive):
        plan = FaultPlan(
            [FaultSpec(site="trainer.submit", kind="hang", at=(0, 1))],
            seed=5,
        )
        executor = SimulatedTrainerExecutor()
        with use_fault_plan(plan):
            policy = LFOOnline(
                trace.footprint() // 10, window=1000,
                gbdt_params=GBDTParams(num_iterations=8), n_gaps=N_GAPS,
                label_config=OptLabelConfig("segmented", segment_length=500),
                background=True, executor=executor, train_deadline=1001,
            )
            policy.set_model(model)
            inner, decided = policy.apply_scored, count(1)

            def apply_scored(*args):
                hit = inner(*args)
                if next(decided) == 1537:
                    executor.release_hung()
                return hit

            policy.apply_scored = apply_scored
            result = outcome(policy, drive)
        executor.shutdown(cancel_futures=True)
        return (
            result, policy.trainer.n_watchdog_cancels,
            policy.n_skipped_retrains, policy.n_retrains,
        )

    reference = run(scalar(requests))
    assert reference == run(served(requests, 256, 300))
    assert reference[1:] == (1, 1, 1)  # second hang cancelled, one skip


def test_poll_hook_runs_once_per_request(model):
    """Also for a row a swap ended the step at (polled, decided by the
    next step) and a row a bucket drift re-scored from (polled, then its
    chunk scored again)."""
    requests = list(generate_trace(SyntheticConfig(
        n_requests=600, n_objects=60, size_median=40.0, size_max=150, seed=3,
    )))

    def policy():
        return LFOCache(300, model, tracker=FeatureTracker(n_gaps=N_GAPS))

    polled, polls = policy(), count(1)

    def poll():
        if next(polls) in (70, 71, 300):
            polled.set_model(replace(model))

    engine = DecisionEngine(polled, poll=poll)
    hits = engine.run(*columns(requests))
    assert engine.n_respeculations > 10
    assert next(polls) == len(requests) + 1
    assert hits == scalar(requests)(policy())


@pytest.mark.parametrize(
    "blank",
    [lambda n: [None] * n, lambda n: np.full(n, -1, dtype=np.int8)],
    ids=["list", "ndarray"],
)
def test_step_writes_exactly_the_rows_it_consumed(model, blank):
    """A window's hits land in one slice assignment after the replay;
    when a swap ends the window early nothing past the consumed rows —
    and nothing before ``start`` — is touched, in a list or an array."""
    requests = list(generate_trace(SyntheticConfig(
        n_requests=400, n_objects=60, size_median=40.0, size_max=150, seed=3,
    )))
    policy = LFOCache(300, model, tracker=FeatureTracker(n_gaps=N_GAPS))
    polls = count(1)

    def poll():
        if next(polls) == 150:
            policy.set_model(replace(model))

    engine = DecisionEngine(policy, max_window=64, poll=poll)
    cols = columns(requests)
    hits = blank(len(requests))
    start, steps = 0, []
    while start < len(requests):
        before = list(hits)
        consumed = engine.step(*cols, start, hits)
        steps.append(consumed)
        assert list(hits[:start]) == before[:start]
        assert list(hits[start + consumed:]) == before[start + consumed:]
        assert all(flag in (0, 1) for flag in hits[start:start + consumed])
        start += consumed
    assert len(hits) == len(requests)
    # 149 = 64 + 64 + 21: the swap cut the third window short.
    assert steps[:3] == [64, 64, 21] and sum(steps) == len(requests)
    reference = LFOCache(300, model, tracker=FeatureTracker(n_gaps=N_GAPS))
    assert [bool(h) for h in hits] == scalar(requests)(reference)


@pytest.mark.parametrize("name", list(policy_factories()))
def test_batch_size_is_a_noop_for_non_lfo_policies(name):
    trace = generate_trace(
        SyntheticConfig(n_requests=1500, n_objects=120, seed=13)
    )
    factory = policy_factories()[name]
    cache_size = trace.footprint() // 8
    assert np.array_equal(
        simulate(trace, factory(cache_size), batch_size=512).hits,
        simulate(trace, factory(cache_size)).hits,
    )

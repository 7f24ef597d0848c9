"""Tests for the sharded cache cluster (``repro.cluster``).

The load-bearing claims, each pinned here:

* **routing is deterministic and balanced** — the same
  ``(seed, n_shards)`` pair always yields the same key→shard mapping,
  and no shard holds more than 8% over a uniform share of consecutive
  ids;
* **the wire is lossless and validating** — request records round-trip
  field by field, and a shard rejects a malformed one;
* **a published model rides the next batch, and a shard holds one** —
  each shard attaches once per batch that carries a newer generation
  (however many publishes came between its batches), drops the model it
  replaced, and shutdown (normal, killed shard or SIGINT) stays silent
  on stderr with no shared memory loaded;
* **sharding never changes decisions** — a 2-shard cluster's hits and
  score digests equal a single-process replay of the same splits, cold
  and warm;
* **a backend decides, the driver counts** — shards fill feature rows
  exactly as the in-process engine does, fold only their own telemetry
  into the router registry, and the serving loop counts every byte once
  under either scorer.
"""

import gc
import signal
import struct
import subprocess
import sys
import textwrap
import weakref
from hashlib import blake2b
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import CacheCluster, ClusterScorer, HashRing, ShardConfig
from repro.cluster.wire import RECORD, pack_requests, unpack_requests
from repro.cluster.worker import _ShardState
from repro.core import (
    DecisionEngine, LabelFitJob, LFOCache, LFOOnline,
    WindowTrainer,
)
from repro.gbdt import GBDTParams
from repro.obs import MetricsRegistry, WindowedRegistry, use_registry
from repro.obs.fold import fold_deltas
from repro.obs.registry import Histogram
from repro.resilience import (
    FaultPlan, FaultSpec, SimulatedTrainerExecutor, use_fault_plan,
)
from repro.serve import BatchScorer
from repro.trace import Request, SyntheticConfig, Trace, generate_trace

FAST_PARAMS = GBDTParams(num_iterations=8)
N_GAPS = 10


def columns(requests):
    """What ``DecisionEngine.run`` takes for a list of requests."""
    trace = Trace(list(requests))
    return trace.times, trace.objs, trace.sizes, trace.costs


def published(model):
    """The model a batch message carries after ``publish(model)``."""
    router = CacheCluster(2, 1)  # never started
    router.publish(model)
    return router._model


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        SyntheticConfig(n_requests=3000, n_objects=250, seed=11)
    )


@pytest.fixture(scope="module")
def cache_size(trace):
    return max(2, trace.footprint() // 10)


@pytest.fixture(scope="module")
def model(trace, cache_size):
    """One warm model trained on a trace prefix (shard-sized capacity)."""
    online = LFOOnline(
        cache_size // 2,
        window=1000,
        gbdt_params=FAST_PARAMS,
        n_gaps=N_GAPS,
    )
    for request in list(trace)[:2000]:
        online.on_request(request)
    online.finish_training()
    assert online.model is not None
    return online.model


class TestHashRing:
    def test_same_seed_same_assignment(self):
        keys = np.arange(5000)
        a = HashRing(4, seed=9).shard_of_batch(keys)
        b = HashRing(4, seed=9).shard_of_batch(keys)
        assert np.array_equal(a, b)

    def test_different_seed_different_assignment(self):
        keys = np.arange(5000)
        a = HashRing(4, seed=9).shard_of_batch(keys)
        c = HashRing(4, seed=10).shard_of_batch(keys)
        assert not np.array_equal(a, c)

    def test_spread_is_roughly_uniform(self):
        """The busiest shard stays within 8% of uniform at every seed (a
        consistent-hash ring of 64 points per shard reads 25-30% over)."""
        keys = np.arange(20_000)
        for n in (2, 4, 8):
            for seed in range(20):
                counts = np.bincount(
                    HashRing(n, seed=seed).shard_of_batch(keys), minlength=n
                )
                assert counts.sum() == len(keys)
                assert counts.max() <= 1.08 * len(keys) / n, (n, seed, counts)

    def test_partition_preserves_order_and_indices(self):
        ring = HashRing(3, seed=1)
        requests = list(
            generate_trace(SyntheticConfig(n_requests=300, seed=5))
        )
        buckets = ring.partition(requests)
        assert sum(len(b) for b in buckets) == len(requests)
        shards = ring.shard_of_batch([request.obj for request in requests])
        seen = set()
        for shard, bucket in enumerate(buckets):
            indices = [index for index, _request in bucket]
            assert indices == sorted(indices), "per-shard order must hold"
            for index, request in bucket:
                assert requests[index] is request
                assert shards[index] == shard
            seen.update(indices)
        assert seen == set(range(len(requests)))

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

wire_requests = st.builds(
    Request,
    time=st.integers(0, 2**40) | st.floats(0, 1e12),
    obj=st.integers(INT64_MIN, INT64_MAX),
    size=st.integers(1, INT64_MAX),
    # Default (cost = size), zero, and a cost unrelated to the size.
    cost=st.just(-1.0) | st.just(0.0) | st.floats(0, 1e15),
)


class TestWire:
    @settings(derandomize=True, deadline=None)
    @given(st.lists(wire_requests, min_size=1, max_size=50))
    @example([Request(0, INT64_MIN, 1), Request(0.5, INT64_MAX, INT64_MAX, 3.0)])
    def test_round_trip_field_by_field(self, requests):
        data = pack_requests(list(enumerate(requests)))
        assert len(data) == RECORD.size * len(requests)
        times, objs, sizes, costs = unpack_requests(data)
        assert objs.dtype == sizes.dtype == np.int64
        assert times.dtype == costs.dtype == np.float64
        # ``tolist`` is how the engine reads them: Python ints and floats.
        rebuilt = list(zip(
            times.tolist(), objs.tolist(), sizes.tolist(), costs.tolist()
        ))
        assert rebuilt == [
            (sent.time, sent.obj, sent.size, sent.cost) for sent in requests
        ]
        assert all(
            type(obj) is int and type(size) is int
            for _time, obj, size, _cost in rebuilt
        )

    def test_malformed_records_are_rejected(self):
        good = pack_requests([(0, Request(1.0, 2, 3)), (1, Request(2.0, 4, 5))])
        for length in (len(good) - 1, len(good) + 1, 1):
            with pytest.raises(ValueError, match="32 bytes"):
                unpack_requests((good + b"\0")[:length])
        for size in (0, -7):
            with pytest.raises(ValueError, match="size must be positive"):
                unpack_requests(good + RECORD.pack(3.0, 6, size, 1.0))

    def test_negative_cost_means_the_size(self):
        """What ``Request.__post_init__`` does, on the columnar decode."""
        data = RECORD.pack(1.0, 2, 30, -1.0) + RECORD.pack(2.0, 4, 5, 0.0)
        *_, sizes, costs = unpack_requests(data)
        assert sizes.tolist() == [30, 5]
        assert costs.tolist() == [30.0, 0.0]


class _Outbox:
    """The worker's end of a pipe: keeps what a shard sends."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


class TestShardReply:
    """One message per batch, in-process (no spawn): its parts against an
    in-process engine over the same requests."""

    @pytest.mark.parametrize("with_rows", [False, True])
    def test_one_reply_per_batch(self, trace, cache_size, model, with_rows):
        requests = list(trace)[:400]
        cache = LFOCache(cache_size, model=model, n_gaps=N_GAPS)
        rows = []
        expected_hits = DecisionEngine(
            cache, tap=lambda *_: rows.append(cache.last_features.copy())
        ).run(*columns(requests))

        outbox = _Outbox()
        state = _ShardState(ShardConfig(0, cache_size, N_GAPS), outbox)
        state.process(
            pack_requests(list(enumerate(requests))), with_rows,
            published(model),
        )

        (kind, shard, stats, deltas, hits, features), = outbox.sent
        assert (kind, shard) == ("done", 0)
        assert hits == bytes(expected_hits)
        assert stats["requests"] == len(requests)
        assert ("counter", "cluster.shard_attaches", 1) in deltas
        # Requests, hits and bytes are the driver's to count.
        assert not [d for d in deltas if d[1].startswith("sim.")]
        if with_rows:
            shipped = np.frombuffer(features).reshape(len(requests), -1)
            assert np.array_equal(shipped, np.array(rows))
        else:
            assert features is None


    def test_malformed_batch_is_rejected_before_any_of_it_is_scored(
        self, cache_size, model
    ):
        """The shard decodes records straight into columns; what the
        ``Request`` constructor used to refuse one by one is refused for
        the batch, and ``shard_main`` turns the raise into ``error``."""
        good = pack_requests(
            [(0, Request(1.0, 2, 3)), (1, Request(2.0, 4, 5))]
        )
        outbox = _Outbox()
        state = _ShardState(ShardConfig(0, cache_size, N_GAPS), outbox)
        for bad in (good[:-1], good + RECORD.pack(3.0, 6, 0, 1.0)):
            with pytest.raises(ValueError):
                state.process(bad, False, published(model))
        assert outbox.sent == []
        assert state.stats()["requests"] == 0
        assert state.stats()["attaches"] == 0
        assert state.cache.n_objects == 0
        assert state.cache.tracker.n_tracked == 0

    def test_a_shard_holds_one_model(self, trace, cache_size, model):
        """Each batch that carries a model swaps it in and lets the one
        it replaced go: after the last generation attaches, nothing in
        the shard keeps the first one's predictor or the bytes it was
        rebuilt from.  ``attaches`` counts models received, not
        publishes (two publishes come before each batch here)."""
        requests = list(trace)[:800]
        # Never started: its ``publish`` is what a batch message carries.
        router = CacheCluster(cache_size, 1, n_gaps=N_GAPS)
        state = _ShardState(ShardConfig(0, cache_size, N_GAPS), _Outbox())
        first = None
        for start in range(0, len(requests), 200):
            router.publish(model)
            router.publish(model)
            generation, payload, cutoff = router._model
            # An ndarray copy: bytes cannot be weakly referenced.
            payload = np.frombuffer(payload, dtype=np.uint8).copy()
            state.process(
                pack_requests(list(enumerate(requests[start:start + 200]))),
                False, (generation, payload, cutoff),
            )
            if first is None:
                first = [
                    weakref.ref(state.cache.model.predictor),
                    weakref.ref(payload),
                ]
            del payload
        gc.collect()
        assert [ref() is None for ref in first] == [True, True]
        stats = state.stats()
        assert (stats["attaches"], stats["generation"]) == (4, 8)


class TestFoldDeltas:
    def test_counter_records_fold(self):
        registry = MetricsRegistry()
        folded = fold_deltas(
            registry,
            [("counter", "sim.requests", 5), ("counter", "sim.requests", 2)],
        )
        assert folded == 2
        assert registry.counter("sim.requests").value == 7

    def test_histogram_delta_replays_exactly(self):
        bounds = (0.1, 0.5, 1.0)
        local = Histogram("lfo.admission_score", bounds)
        for value in (0.05, 0.3, 0.3, 0.9, 2.0):
            local.observe(value)
        registry = MetricsRegistry()
        fold_deltas(
            registry,
            [(
                "hist", local.name, local.bounds,
                list(local.bucket_counts), local.count, local.total,
                local.max,
            )],
        )
        remote = registry.histogram(local.name, bounds)
        assert remote.as_dict() == local.as_dict()

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown telemetry"):
            fold_deltas(MetricsRegistry(), [("gauge", "x", 1.0)])


class TestClusterEndToEnd:
    def test_matches_in_process_engine(self, trace, cache_size, model):
        """Cold then warm: hits and score digests equal an in-process
        ``DecisionEngine`` per split (itself pinned to the scalar loop in
        ``test_engines_differential.py``)."""
        requests = list(trace)
        cluster = CacheCluster(cache_size, 2, seed=7, n_gaps=N_GAPS)
        with cluster:
            cold = cluster.process(requests[:1000])
            assert cluster.publish(model) == 1
            warm = cluster.process(requests[1000:])
            stats = cluster.shard_stats()
        hits = cold + warm

        expected = [False] * len(requests)
        digests = []
        for bucket in cluster.ring.partition(requests):
            split = [request for _index, request in bucket]
            cache = LFOCache(cache_size // 2, model=None, n_gaps=N_GAPS)
            digest = blake2b(digest_size=16)
            engine = DecisionEngine(
                cache,
                tap=lambda _index, _hit, score, digest=digest: (
                    digest.update(struct.pack("<d", score))
                ),
            )
            # Replay the same cold→warm switch the cluster saw: the model
            # goes live at the first request routed after the publish.
            boundary = sum(1 for index, _request in bucket if index < 1000)
            split_hits = engine.run(*columns(split[:boundary]))
            cache.set_model(model)
            split_hits += engine.run(*columns(split[boundary:]))
            digests.append(digest.hexdigest())
            for (index, _request), hit in zip(bucket, split_hits):
                expected[index] = hit

        assert hits == expected
        assert [s["score_digest"] for s in stats] == digests
        assert all(s["generation"] == 1 for s in stats)
        assert all(s["attaches"] == 1 for s in stats)

    def test_a_shard_attaches_at_its_next_batch(self, trace, cache_size, model):
        """A shard with no requests in the batch after a publish, and two
        publishes between batches, each give one attach at the shard's
        next batch, to the latest generation."""
        requests = list(trace)[:1500]
        cluster = CacheCluster(cache_size, 2, seed=7, n_gaps=N_GAPS)
        middle = requests[500:1000]
        shards = cluster.ring.shard_of_batch([request.obj for request in middle])
        only_shard_0 = [
            request for request, shard in zip(middle, shards) if shard == 0
        ]
        with cluster:
            cluster.process(requests[:500])
            assert cluster.publish(model) == 1
            cluster.process(only_shard_0)
            assert [
                (s["attaches"], s["generation"]) for s in cluster.shard_stats()
            ] == [(1, 1), (0, 0)]
            cluster.publish(model)
            assert cluster.publish(model) == 3
            cluster.process(requests[1000:1250])
            cluster.process(requests[1250:])  # nothing newer to send
            assert [
                (s["attaches"], s["generation"]) for s in cluster.shard_stats()
            ] == [(2, 3), (1, 3)]

    def test_report_and_folded_telemetry(self, trace, cache_size, model):
        """A bare cluster folds its own telemetry — ``cluster.*`` and the
        admission scores — and reports per-shard stats; requests, hits
        and bytes are left to the driver."""
        requests = list(trace)[:2000]
        with use_registry(MetricsRegistry()) as registry:
            cluster = CacheCluster(cache_size, 2, seed=7, n_gaps=N_GAPS)
            with cluster:
                cluster.publish(model)
                for start in range(0, len(requests), 512):
                    cluster.process(requests[start:start + 512])
                stats = cluster.shard_stats()
            assert [set(s) for s in stats] == [{
                "shard", "requests", "cpu_seconds", "busy_seconds",
                "attaches", "generation", "score_digest",
            }] * 2
            assert sum(s["requests"] for s in stats) == len(requests)
            counters = registry.to_dict()["counters"]
            assert counters["cluster.requests"] == len(requests)
            assert counters["cluster.shard_batches"] == 8
            assert counters["cluster.shard_attaches"] == 2
            assert counters["cluster.publishes"] == 1
            assert not [name for name in counters if name.startswith("sim.")]
            score_hist = registry.histogram("lfo.admission_score", (0.5,))
            assert score_hist.count == len(requests)

    def test_rows_match_the_in_process_engine(self, trace, cache_size, model):
        """``process(requests, rows)`` fills row ``i`` with the row request
        ``i`` was scored with: ``DecisionEngine.run(..., rows=)`` over
        each split, re-interleaved into request order."""
        requests = list(trace)[:1200]
        rows = np.full((len(requests), 3 + N_GAPS), np.nan)
        cluster = CacheCluster(cache_size, 2, seed=7, n_gaps=N_GAPS)
        with cluster:
            cold = cluster.process(requests[:600], rows[:600])
            cluster.publish(model)
            warm = cluster.process(requests[600:], rows[600:])

        expected = np.full_like(rows, np.nan)
        expected_hits = [False] * len(requests)
        for bucket in cluster.ring.partition(requests):
            cache = LFOCache(cache_size // 2, model=None, n_gaps=N_GAPS)
            engine = DecisionEngine(cache)
            boundary = sum(1 for index, _request in bucket if index < 600)
            for part in (bucket[:boundary], bucket[boundary:]):
                split_rows = np.empty((len(part), 3 + N_GAPS))
                split_hits = engine.run(
                    *columns(request for _index, request in part),
                    rows=split_rows,
                )
                indices = [index for index, _request in part]
                expected[indices] = split_rows
                for index, hit in zip(indices, split_hits):
                    expected_hits[index] = hit
                cache.set_model(model)
        assert cold + warm == expected_hits
        assert np.array_equal(rows, expected)

    def test_lifecycle_errors(self, cache_size):
        cluster = CacheCluster(cache_size, 2)
        with pytest.raises(RuntimeError, match="before start"):
            cluster.process([])
        cluster.start()
        assert cluster.process([]) == []
        cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            cluster.start()
        with pytest.raises(ValueError):
            CacheCluster(1, 2)  # cache smaller than shard count


_SHUTDOWN_SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np

    from repro.cluster import CacheCluster
    from repro.core import LFOModel
    from repro.features import Dataset, feature_names
    from repro.gbdt import GBDTParams
    from repro.trace import SyntheticConfig, generate_trace

    def main():
        trace = list(generate_trace(
            SyntheticConfig(n_requests=2000, n_objects=200, seed=3)
        ))
        X = np.random.default_rng(0).uniform(0, 100, size=(400, 53))
        model = LFOModel.train(
            Dataset(X, (X[:, 0] < 50).astype(float), feature_names(50)),
            params=GBDTParams(num_iterations=3),
        )
        cluster = CacheCluster(50_000, 2, seed=1).start()
        try:
            cluster.publish(model)
            cluster.process(trace[:500])
            if "--kill-shard" in sys.argv:
                import os, signal
                os.kill(cluster._processes[0].pid, signal.SIGKILL)
                for _ in range(2):
                    try:
                        cluster.process(trace[500:1000])
                    except RuntimeError as exc:
                        print("FAILED", exc, flush=True)
            elif "--wait-sigint" in sys.argv:
                try:
                    # READY inside the try: the parent signals only after
                    # reading it, so the interrupt always lands in here.
                    print("READY", flush=True)
                    while True:
                        cluster.process(trace[500:1000])
                except KeyboardInterrupt:
                    pass
            else:
                print("READY", flush=True)
        finally:
            cluster.close()
        print("CLOSED", flush=True)
        # Models travel in the batch messages: nothing maps shared memory.
        print("SHARED", sorted(
            name for name in sys.modules
            if name.startswith("multiprocessing.shared")
        ), flush=True)

    if __name__ == "__main__":
        main()
""")

_NOISE = ("leaked", "Traceback", "KeyError", "BufferError")


class TestShutdownLeakFree:
    """Shutdown stays silent on stderr, and the router never loads shared
    memory (``SHARED []``)."""

    def _write_script(self, tmp_path: Path) -> str:
        path = tmp_path / "cluster_shutdown.py"
        path.write_text(_SHUTDOWN_SCRIPT)
        return str(path)

    def _env(self):
        import os

        env = dict(os.environ)
        root = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    def test_normal_shutdown_is_silent(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, self._write_script(tmp_path)],
            capture_output=True, text=True, timeout=120, env=self._env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-3:] == ["CLOSED", "SHARED []", ""]
        for marker in _NOISE:
            assert marker not in proc.stderr, proc.stderr

    def test_killed_shard_fails_the_cluster_by_name(self, tmp_path):
        """A dead worker is named with its exit code, the failure latches
        (live shards still hold unread replies to the interrupted batch),
        and shutdown stays silent."""
        proc = subprocess.run(
            [sys.executable, self._write_script(tmp_path), "--kill-shard"],
            capture_output=True, text=True, timeout=120, env=self._env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == [
            "FAILED shard 0 exited (code -9)"
        ] * 2 + ["CLOSED", "SHARED []", ""]
        for marker in _NOISE:
            assert marker not in proc.stderr, proc.stderr

    def test_sigint_shutdown_is_silent(self, tmp_path):
        import os

        # start_new_session + killpg reproduces a real terminal Ctrl-C:
        # the signal hits the router AND every shard worker.  Workers
        # must ignore it (the router owns their shutdown) or the drain
        # finds a KeyboardInterrupt half-reply in the pipe.
        proc = subprocess.Popen(
            [sys.executable, self._write_script(tmp_path), "--wait-sigint"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=self._env(), start_new_session=True,
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            os.killpg(os.getpgid(proc.pid), signal.SIGINT)
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, err
        assert out.split("\n")[-3:] == ["CLOSED", "SHARED []", ""]
        for marker in _NOISE:
            assert marker not in err, err


class TestClusterScorer:
    def _trainer(self, cluster):
        """A bare trainer sized from the cluster it trains for."""
        job = LabelFitJob(
            cluster.shard_size,
            gbdt_params=FAST_PARAMS,
        )
        return WindowTrainer(800, job, install=cluster.publish)

    def test_serving_loop_trains_and_hands_off(self, trace, cache_size):
        """Figure-2 loop over shards: serve → train → publish → attach."""
        import asyncio

        from repro.serve import ServeConfig, ServingLoop, TraceReplayDriver

        with use_registry(MetricsRegistry()) as registry:
            cluster = CacheCluster(
                cache_size, 2, seed=7, n_gaps=N_GAPS
            ).start()
            trainer = self._trainer(cluster)
            scorer = ClusterScorer(trainer, cluster)
            assert trainer.install == cluster.publish
            loop = ServingLoop(
                None,
                TraceReplayDriver(trace),
                config=ServeConfig(max_batch=256),
                scorer=scorer,
            )
            try:
                report = asyncio.run(loop.run())
            finally:
                trainer.close()
                cluster.close()
            assert report.requests == len(trace)
            assert report.dropped == 0
            assert scorer.n_handoffs >= 1
            assert cluster.generation >= 1
            assert all(
                s["generation"] >= 1 for s in cluster.shard_stats()
            ), "every shard must warm-hand-off to a published generation"
            # The router publishes the training posture the staleness
            # SLO reads.
            gauges = registry.to_dict()["gauges"]
            assert "online.windows_since_model" in gauges

    def test_the_trainer_gets_the_served_rows_cut_every_window(
        self, trace, cache_size
    ):
        """Batches of 300 against windows of 800, so blocks split at
        window edges: each window the job receives is the rows the shards
        filled, concatenated in request order and cut every 800."""
        requests = list(trace)
        windows, served = [], []
        with use_registry(MetricsRegistry()):
            cluster = CacheCluster(
                cache_size, 2, seed=7, n_gaps=N_GAPS
            ).start()
            trainer = self._trainer(cluster)
            job, process = trainer.job, cluster.process

            def recording(window_requests, features, name, deployed):
                windows.append((list(window_requests), features.tobytes()))
                return job(window_requests, features, name, deployed)

            def keeping_rows(batch, rows):
                hits = process(batch, rows)
                served.append(rows.copy())
                return hits

            trainer.job, cluster.process = recording, keeping_rows
            scorer = ClusterScorer(trainer, cluster)
            try:
                for start in range(0, len(requests), 300):
                    scorer.process(requests[start:start + 300])
            finally:
                trainer.close()
                cluster.close()
        rows = np.concatenate(served)
        assert len(rows) == len(requests)
        assert len(windows) == len(requests) // 800 == 3
        for w, (window_requests, features) in enumerate(windows):
            cut = slice(w * 800, (w + 1) * 800)
            assert window_requests == requests[cut]
            assert features == rows[cut].tobytes()

    def test_an_inline_trainer_publishes_at_the_window_edge(
        self, trace, cache_size
    ):
        """Windows of 300, batches of 128: each model goes out with the
        part right after its window's edge, and only a model that served
        a part counts as a handoff (the last one serves nothing)."""
        requests = list(trace)[:900]
        dispatched, published = [0], []
        with use_registry(MetricsRegistry()):
            cluster = CacheCluster(
                cache_size, 2, seed=7, n_gaps=N_GAPS
            ).start()
            process, publish = cluster.process, cluster.publish

            def counting(batch, rows):
                dispatched[0] += len(batch)
                return process(batch, rows)

            def noting(model):
                published.append(dispatched[0])
                publish(model)

            cluster.process, cluster.publish = counting, noting
            trainer = WindowTrainer(
                300, LabelFitJob(cluster.shard_size, gbdt_params=FAST_PARAMS),
                install=cluster.publish,
            )
            scorer = ClusterScorer(trainer, cluster)
            try:
                for start in range(0, len(requests), 128):
                    scorer.process(requests[start:start + 128])
            finally:
                trainer.close()
                cluster.close()
        assert published == [300, 600, 900]
        assert scorer.n_handoffs == 2

    def test_both_scorers_install_at_the_same_part_edge(self):
        """One shard, a background trainer and a job a ``trainer.submit``
        hang parks, released inside poll 1700 — mid-part with batches of
        256: ``BatchScorer`` and ``ClusterScorer`` both poll a whole part
        before deciding it, so its model serves from that part on in
        either, and the two decide alike."""
        requests = list(generate_trace(SyntheticConfig(
            n_requests=6000, n_objects=500, size_median=30.0, size_max=800,
            seed=7,
        )))
        cache_size = Trace(requests).footprint() // 10
        params = GBDTParams(num_iterations=8)

        def served(scorer, trainer):
            executor, poll, polls = trainer.executor, trainer.poll, count(1)

            def releasing():
                if next(polls) == 1700:
                    executor.release_hung()
                poll()

            trainer.poll = releasing
            hits = []
            for start in range(0, len(requests), 256):
                hits += scorer.process(requests[start:start + 256])
            trainer.close()
            executor.shutdown(cancel_futures=True)
            return sum(hits), scorer.n_handoffs, trainer.n_retrains

        def hung():
            return use_fault_plan(FaultPlan(
                [FaultSpec(site="trainer.submit", kind="hang", at=(0,))],
                seed=5,
            ))

        with use_registry(MetricsRegistry()), hung():
            policy = LFOOnline(
                cache_size, window=1500, gbdt_params=params, n_gaps=N_GAPS,
                background=True, executor=SimulatedTrainerExecutor(),
            )
            in_process = served(BatchScorer(policy), policy.trainer)
        with use_registry(MetricsRegistry()), hung():
            cluster = CacheCluster(cache_size, 1, seed=7, n_gaps=N_GAPS).start()
            trainer = WindowTrainer(
                1500, LabelFitJob(cluster.shard_size, gbdt_params=params),
                install=cluster.publish, background=True,
                executor=SimulatedTrainerExecutor(),
            )
            try:
                sharded = served(ClusterScorer(trainer, cluster), trainer)
            finally:
                cluster.close()
        assert in_process == sharded
        assert in_process[1:] == (3, 4)  # released at 1700, then 3001, 4501

    @pytest.mark.parametrize("backend", ["batch", "cluster"])
    def test_every_window_counts_each_byte_once(
        self, trace, cache_size, backend
    ):
        """Whichever scorer decides, each window's byte delta is the
        sizes of exactly the requests its ``serve.requests`` counted."""
        import asyncio

        from repro.serve import ServeConfig, ServingLoop, TraceReplayDriver

        registry = WindowedRegistry(
            every_requests=500, request_counter="serve.requests"
        )
        with use_registry(registry):
            cluster = policy = None
            if backend == "cluster":
                cluster = CacheCluster(
                    cache_size, 2, seed=7, n_gaps=N_GAPS
                ).start()
                trainer = self._trainer(cluster)
                scorer = ClusterScorer(trainer, cluster)
            else:
                policy = LFOOnline(
                    cache_size, window=800, gbdt_params=FAST_PARAMS,
                    n_gaps=N_GAPS,
                )
                trainer = policy.trainer
                scorer = None
            loop = ServingLoop(
                policy, TraceReplayDriver(trace), ServeConfig(max_batch=256),
                scorer=scorer,
            )
            try:
                asyncio.run(loop.run())
            finally:
                trainer.close()
                if cluster is not None:
                    cluster.close()
        sizes = [request.size for request in trace]
        served = 0
        windows = registry.windows()
        assert len(windows) > 2
        for window in windows:
            counters = window.counters
            n = int(counters["serve.requests"])
            assert (
                counters["sim.hit_bytes"] + counters["sim.miss_bytes"]
                == sum(sizes[served:served + n])
            )
            served += n
        assert served == len(trace)
        assert sum(
            window.counters["sim.hit_bytes"] + window.counters["sim.miss_bytes"]
            for window in windows
        ) == sum(sizes)
        assert sum(
            window.counters["serve.model_handoffs"] for window in windows
        ) == loop.report.model_handoffs >= 1


class TestServeCli:
    def test_shards_flag_end_to_end(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--synthetic", "2000",
            "--cache-fraction", "10", "--window", "600", "--segment", "300",
            "--shards", "2", "--trainer", "inline", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        import re

        assert re.search(r"requests\s+2000", out), out
        assert re.search(r"dropped\s+0", out), out

    def test_shards_validation(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "--synthetic", "100", "--shards", "0",
        ]) == 2

"""Tests for the windowed-telemetry ring (repro.obs.windows)."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    WindowedRegistry,
    estimate_quantile,
)
from repro.obs.windows import WindowSnapshot, window_bhr


class FakeClock:
    """Injectable monotonic clock for deterministic window edges."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestEstimateQuantile:
    BOUNDS = (1.0, 2.0, 4.0)

    def test_empty_window_is_zero(self):
        assert estimate_quantile(self.BOUNDS, [0, 0, 0, 0], 0.99) == 0.0

    def test_interpolates_within_bucket(self):
        # 10 observations all in (1, 2]: the median sits mid-bucket.
        value = estimate_quantile(self.BOUNDS, [0, 10, 0, 0], 0.5)
        assert 1.0 < value <= 2.0

    def test_monotone_in_q(self):
        counts = [3, 5, 2, 1]
        qs = [estimate_quantile(self.BOUNDS, counts, q)
              for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_overflow_bucket_uses_tracked_max(self):
        value = estimate_quantile(
            self.BOUNDS, [0, 0, 0, 4], 0.99, max_value=100.0
        )
        assert 4.0 < value <= 100.0

    def test_overflow_without_max_reports_top_edge(self):
        assert estimate_quantile(self.BOUNDS, [0, 0, 0, 4], 0.99) == 4.0

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            estimate_quantile(self.BOUNDS, [1, 0, 0, 0], 1.5)


class TestWindowedRegistryModes:
    def test_exactly_one_mode_required(self):
        with pytest.raises(ValueError):
            WindowedRegistry(every_requests=0)
        with pytest.raises(ValueError):
            WindowedRegistry(every_requests=10, ring=0)

    def test_request_mode_rolls_on_counter_growth(self):
        registry = WindowedRegistry(every_requests=5)
        requests = registry.counter("sim.requests")
        assert registry.maybe_roll() is None  # counter exists, no growth
        requests.inc(4)
        assert registry.maybe_roll() is None
        requests.inc(1)
        snap = registry.maybe_roll()
        assert snap is not None and snap.requests == 5

    def test_request_mode_without_counter_never_rolls(self):
        registry = WindowedRegistry(every_requests=5)
        registry.counter("sim.hits").inc(100)
        assert registry.maybe_roll() is None

    def test_flush_closes_partial_tail(self):
        registry = WindowedRegistry(every_requests=5)
        registry.counter("sim.requests").inc(5)
        assert registry.maybe_roll() is not None
        registry.counter("sim.requests").inc(3)
        snap = registry.flush()
        assert snap is not None and snap.requests == 3

    def test_flush_is_noop_on_empty_window(self):
        # Trace length an exact multiple of the window: the periodic roll
        # already closed the tail, flush must not append an empty snapshot.
        registry = WindowedRegistry(every_requests=5)
        registry.counter("sim.requests").inc(5)
        assert registry.maybe_roll() is not None
        assert registry.flush() is None
        assert len(registry.windows()) == 1
        # ... and before any requests at all.
        fresh = WindowedRegistry(every_requests=5)
        assert fresh.flush() is None

    def test_concurrent_flush_closes_tail_exactly_once(self):
        # Shutdown race: a cancelled event loop's drain path and a signal
        # handler can both reach flush() with the same partial tail.  The
        # emptiness check and the roll are one lock acquisition, so only
        # one caller closes the window; the rest observe an empty window
        # and return None.  Regression: the check used to read the counter
        # outside the lock, letting both callers roll a duplicate tail.
        import threading

        for _ in range(50):
            registry = WindowedRegistry(every_requests=5)
            registry.counter("sim.requests").inc(3)
            barrier = threading.Barrier(4)
            results: list[object] = [None] * 4

            def _flush(slot: int) -> None:
                barrier.wait()
                results[slot] = registry.flush()

            threads = [
                threading.Thread(target=_flush, args=(slot,))
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            closed = [snap for snap in results if snap is not None]
            assert len(closed) == 1
            assert len(registry.windows()) == 1
            assert registry.windows()[0].requests == 3

    def test_jsonl_sink_attach_writes_tail_exactly_once(self, tmp_path):
        from repro.obs import JsonlSink

        path = tmp_path / "windows.jsonl"
        registry = WindowedRegistry(every_requests=5)
        JsonlSink(path).attach(registry)
        registry.counter("sim.requests").inc(5)
        registry.maybe_roll()
        registry.counter("sim.requests").inc(2)
        registry.flush()
        registry.flush()  # idempotent: tail already closed, no extra line
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["requests"] == 2


class TestWindowDeltas:
    def test_counter_deltas_and_gauge_values(self):
        registry = WindowedRegistry(every_requests=10)
        counter = registry.counter("sim.requests")
        gauge = registry.gauge("sim.cache_objects")
        counter.inc(10)
        gauge.set(7.0)
        first = registry.roll()
        counter.inc(15)
        gauge.set(9.0)
        second = registry.roll()
        assert first.delta("sim.requests") == 10
        assert second.delta("sim.requests") == 15
        assert first.gauges["sim.cache_objects"] == 7.0
        assert second.gauges["sim.cache_objects"] == 9.0

    def test_histogram_deltas_per_window(self):
        registry = WindowedRegistry(every_requests=10)
        hist = registry.histogram("lat", bounds=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        first = registry.roll()
        hist.observe(50.0)
        second = registry.roll()
        assert first.histograms["lat"]["counts"] == [1, 1, 0]
        assert first.histograms["lat"]["count"] == 2
        assert second.histograms["lat"]["counts"] == [0, 0, 1]
        assert second.histograms["lat"]["count"] == 1
        # max is cumulative (cannot be delta-encoded).
        assert second.histograms["lat"]["max"] == 50.0

    def test_window_bhr_from_byte_counters(self):
        registry = WindowedRegistry(every_requests=10)
        registry.counter("sim.hit_bytes").inc(300)
        registry.counter("sim.miss_bytes").inc(100)
        snap = registry.roll()
        assert snap.bhr == pytest.approx(0.75)
        assert window_bhr(snap) == pytest.approx(0.75)

    def test_bhr_none_without_bytes(self):
        registry = WindowedRegistry(every_requests=10)
        snap = registry.roll()
        assert snap.bhr is None

    def test_window_quantile(self):
        registry = WindowedRegistry(every_requests=10)
        hist = registry.histogram("lat", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            hist.observe(value)
        snap = registry.roll()
        assert 0.0 < snap.quantile("lat", 0.5) <= 2.0
        assert snap.quantile("missing", 0.5) == 0.0
        assert snap.histogram_count("lat") == 4


class TestRing:
    def test_ring_bounded_and_index_monotonic(self):
        registry = WindowedRegistry(every_requests=10, ring=3)
        counter = registry.counter("sim.requests")
        for _ in range(5):
            counter.inc(10)
            registry.roll()
        windows = registry.windows()
        assert len(windows) == 3
        assert [w.index for w in windows] == [2, 3, 4]

    def test_wraparound_deterministic_under_replay(self):
        """Seeded replay: same operation sequence, bit-identical rings."""

        def run() -> list[dict]:
            clock = FakeClock()
            registry = WindowedRegistry(
                every_requests=7, ring=4, clock=clock
            )
            counter = registry.counter("sim.requests")
            hist = registry.histogram("lat", bounds=(1.0, 4.0))
            for i in range(60):
                counter.inc()
                hist.observe(float(i % 5))
                clock.advance(0.25)
                registry.maybe_roll()
            registry.roll()
            return [w.as_dict() for w in registry.windows()]

        first, second = run(), run()
        assert json.dumps(first) == json.dumps(second)
        assert len(first) == 4

    def test_to_windows_dict_shape(self):
        registry = WindowedRegistry(every_requests=10, ring=8)
        registry.counter("sim.requests").inc(10)
        registry.roll()
        dump = registry.to_windows_dict()
        assert dump["mode"] == "requests"
        assert dump["every_requests"] == 10
        assert dump["ring"] == 8
        assert dump["next_index"] == 1
        assert len(dump["windows"]) == 1
        json.dumps(dump)  # JSON-safe end to end

    def test_reset_clears_ring_and_baselines(self):
        registry = WindowedRegistry(every_requests=10)
        registry.counter("sim.requests").inc(10)
        registry.roll()
        registry.reset()
        assert registry.windows() == []
        registry.counter("sim.requests").inc(4)
        snap = registry.roll()
        assert snap.index == 0
        assert snap.delta("sim.requests") == 4


class TestCallbacks:
    def test_on_close_runs_after_lock_release(self):
        """Callbacks may create instruments without deadlocking."""
        registry = WindowedRegistry(every_requests=10)
        seen: list[WindowSnapshot] = []

        def callback(snapshot: WindowSnapshot) -> None:
            registry.counter("slo.window_violations").inc()
            seen.append(snapshot)

        registry.on_close(callback)
        registry.counter("sim.requests").inc(10)
        registry.roll()
        assert len(seen) == 1
        assert registry.counter("slo.window_violations").value == 1


class TestNullParity:
    """NullRegistry mirrors the whole windowed surface as no-ops."""

    def test_windowed_api_parity(self):
        null = NullRegistry()
        null.on_close(lambda snap: None)
        assert null.maybe_roll() is None
        assert null.roll() is None
        assert null.windows() == []
        dump = null.to_windows_dict()
        assert dump["mode"] == "disabled"
        assert dump["windows"] == []

    def test_plain_registry_parity(self):
        registry = MetricsRegistry()
        registry.on_close(lambda snap: None)
        assert registry.maybe_roll() is None
        assert registry.windows() == []
        assert registry.to_windows_dict()["mode"] == "disabled"

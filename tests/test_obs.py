"""Tests for the observability layer (repro.obs) and its wiring."""

import json
import logging
import threading

import pytest

from repro.cache import LRUCache
from repro.core import LFOOnline, OptLabelConfig
from repro.gbdt import GBDTParams
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    render_prometheus,
    set_registry,
    use_registry,
    write_json,
)
from repro.sim import simulate
from repro.trace import Request, SyntheticConfig, Trace, generate_trace

FAST_PARAMS = GBDTParams(num_iterations=5)


class TestCounterGaugeHistogram:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert registry.counter("c") is counter  # get-or-create
        assert registry.to_dict()["counters"]["c"] == 5

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(2.5)
        gauge.inc(0.5)
        assert registry.to_dict()["gauges"]["g"] == 3.0

    def test_histogram_buckets_and_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0, 7.0):
            hist.observe(value)
        stats = registry.to_dict()["histograms"]["h"]
        assert stats["count"] == 4
        assert stats["total"] == pytest.approx(62.5)
        assert stats["max"] == 50.0
        # buckets: <=1.0, <=10.0, overflow
        assert stats["buckets"] == [[1.0, 1], [10.0, 2], ["+Inf", 1]]

    def test_histogram_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_registry_histogram_default_bounds(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.bounds == DEFAULT_TIME_BUCKETS

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        with registry.span("s"):
            pass
        registry.reset()
        snapshot = registry.to_dict()
        assert snapshot["counters"] == {}
        assert snapshot["spans"] == {}


class TestSpans:
    def test_nesting_records_parent(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        recent = registry.to_dict()["recent_spans"]
        by_name = {record["name"]: record for record in recent}
        assert by_name["inner"]["parent"] == "outer"
        assert by_name["outer"]["parent"] is None

    def test_aggregation_bounded_by_name(self):
        registry = MetricsRegistry()
        for _ in range(300):
            with registry.span("stage"):
                pass
        snapshot = registry.to_dict()
        assert snapshot["spans"]["stage"]["count"] == 300
        assert len(snapshot["recent_spans"]) == 256  # ring buffer bound

    def test_span_elapsed_exposed(self):
        registry = MetricsRegistry()
        with registry.span("s") as span:
            pass
        assert span.elapsed >= 0.0
        aggregate = registry.to_dict()["spans"]["s"]
        assert aggregate["total_seconds"] == pytest.approx(span.elapsed)
        assert aggregate["mean_seconds"] == pytest.approx(span.elapsed)

    def test_span_recorded_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("failing"):
                raise RuntimeError("boom")
        assert registry.to_dict()["spans"]["failing"]["count"] == 1

    def test_per_thread_stacks(self):
        registry = MetricsRegistry()
        seen = []

        def worker():
            with registry.span("child") as span:
                seen.append(span.parent)

        with registry.span("main-span"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The other thread's span must not pick up this thread's parent.
        assert seen == [None]


class TestNullRegistry:
    def test_everything_noop(self):
        registry = NullRegistry()
        registry.counter("c").inc(5)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(2.0)
        snapshot = registry.to_dict()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}
        assert registry.to_prometheus() == ""

    def test_null_span_still_measures(self):
        registry = NullRegistry()
        with registry.span("s") as span:
            sum(range(1000))
        assert span.elapsed > 0.0
        assert registry.to_dict()["spans"] == {}

    def test_default_registry_is_null(self):
        assert get_registry().enabled is False

    def test_use_registry_restores_on_error(self):
        previous = get_registry()
        with pytest.raises(RuntimeError):
            with use_registry(MetricsRegistry()):
                raise RuntimeError
        assert get_registry() is previous

    def test_set_registry_returns_previous(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            assert get_registry() is registry
        finally:
            set_registry(previous)


class TestExporters:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("sim.hits").inc(7)
        registry.gauge("cache.used").set(42)
        registry.histogram("lat", bounds=(0.1, 1.0)).observe(0.05)
        with registry.span("online.fit"):
            pass
        return registry

    def test_prometheus_format(self):
        text = self._populated().to_prometheus()
        assert "# TYPE repro_sim_hits_total counter" in text
        assert "repro_sim_hits_total 7" in text
        assert "repro_cache_used 42" in text
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_count 1" in text
        assert 'repro_span_seconds_count{span="online.fit"} 1' in text

    def test_prometheus_bucket_counts_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(9.0)
        text = registry.to_prometheus()
        assert 'repro_h_bucket{le="1.0"} 1' in text
        assert 'repro_h_bucket{le="2.0"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text

    def test_write_json(self, tmp_path):
        path = tmp_path / "snap.json"
        write_json(self._populated().to_dict(), path)
        loaded = json.loads(path.read_text())
        assert loaded["counters"]["sim.hits"] == 7

    def test_jsonl_sink_appends(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        registry = self._populated()
        sink = JsonlSink(path)
        sink.write(registry.to_dict())
        registry.counter("sim.hits").inc()
        sink.write(registry.to_dict())
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["counters"]["sim.hits"] == 7
        assert json.loads(lines[1])["counters"]["sim.hits"] == 8

    def test_prometheus_render_of_empty_snapshot(self):
        assert render_prometheus(NullRegistry().to_dict()) == ""


class TestPrometheusConformance:
    """Exposition-format conformance, pinned against the spec grammar."""

    def test_inf_bucket_always_present_and_equals_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0,))
        hist.observe(0.5)  # nothing above the top bound
        text = registry.to_prometheus()
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert text.count('le="+Inf"') == 1

    def test_sum_and_count_samples(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        text = registry.to_prometheus()
        assert "repro_h_sum 5.0" in text
        assert "repro_h_count 3" in text

    def test_histogram_type_line_precedes_samples(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        lines = registry.to_prometheus().splitlines()
        type_index = lines.index("# TYPE repro_h histogram")
        assert lines[type_index + 1].startswith("repro_h_bucket")

    def test_legacy_nonfinite_bound_folds_into_inf(self):
        """Snapshots from older runs carried an explicit inf bound; it
        must fold into the single +Inf sample, never render le="inf"."""
        snapshot = {
            "counters": {},
            "gauges": {},
            "histograms": {
                "h": {
                    "count": 3,
                    "total": 6.0,
                    "max": 4.0,
                    "buckets": [[1.0, 1], [float("inf"), 2]],
                }
            },
            "spans": {},
        }
        text = render_prometheus(snapshot)
        assert 'le="inf"' not in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text

    def test_metric_name_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("sim.hits-v2").inc()
        text = registry.to_prometheus()
        assert "repro_sim_hits_v2_total 1" in text

    def test_leading_digit_name_guarded(self):
        registry = MetricsRegistry()
        registry.counter("2xx.responses").inc()
        text = registry.to_prometheus(prefix="")
        assert "_2xx_responses_total 1" in text
        # Every sample line starts with a valid identifier character.
        for line in text.splitlines():
            if line and not line.startswith("#"):
                assert not line[0].isdigit()

    def test_span_label_value_escaped(self):
        registry = MetricsRegistry()
        with registry.span('weird"name\\with\nnasties'):
            pass
        text = registry.to_prometheus()
        assert 'span="weird\\"name\\\\with\\nnasties"' in text
        # No raw newline may survive inside a sample line.
        for line in text.splitlines():
            assert "\n" not in line

    def test_counter_total_suffix_and_gauge_without(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        text = registry.to_prometheus()
        assert "# TYPE repro_c_total counter" in text
        assert "repro_c_total 3" in text
        assert "# TYPE repro_g gauge" in text
        assert "repro_g 1.5" in text
        assert "repro_g_total" not in text


class TestHistogramEdgeCases:
    def test_observation_above_top_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0, 2.0))
        hist.observe(1e9)
        stats = registry.to_dict()["histograms"]["h"]
        assert stats["buckets"] == [[1.0, 0], [2.0, 0], ["+Inf", 1]]
        assert stats["max"] == 1e9

    def test_boundary_value_is_le_inclusive(self):
        """Prometheus buckets are `le`: a value equal to a bound lands in
        that bound's bucket, not the next one."""
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0, 2.0))
        hist.observe(1.0)
        hist.observe(2.0)
        stats = registry.to_dict()["histograms"]["h"]
        assert stats["buckets"] == [[1.0, 1], [2.0, 1], ["+Inf", 0]]

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, float("inf")))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(float("nan"),))

    def test_unsorted_bounds_normalised(self):
        hist = Histogram("h", bounds=(2.0, 1.0))
        assert hist.bounds == (1.0, 2.0)
        hist.observe(1.5)
        assert hist.bucket_counts == [0, 1, 0]

    def test_observe_batch_matches_scalar_observe(self):
        """Bit for bit, ``total`` too: numpy's pairwise ``sum`` rounds
        differently from adding one value at a time (2048 draws differ
        in the last bits), and a batch continues a running total."""
        import numpy as np

        rng = np.random.default_rng(11)
        edges = np.asarray([0.5, 1.0, 1.5, 2.0, 9.0, 1e6])
        for values in [edges, *(rng.random(n) for n in (1, 7, 8, 2048))]:
            scalar = Histogram("a", bounds=(0.25, 1.0, 2.0))
            batched = Histogram("b", bounds=(0.25, 1.0, 2.0))
            for hist in (scalar, batched):
                hist.observe(0.1)
            for value in values:
                scalar.observe(float(value))
            batched.observe_batch(values)
            assert batched.bucket_counts == scalar.bucket_counts
            assert batched.count == scalar.count
            assert batched.total == scalar.total
            assert batched.max == scalar.max

    def test_observe_batch_empty_is_noop(self):
        import numpy as np

        hist = Histogram("h", bounds=(1.0,))
        hist.observe_batch(np.asarray([]))
        assert hist.count == 0

    def test_null_registry_observe_batch_noop(self):
        registry = NullRegistry()
        registry.histogram("h").observe_batch([1.0, 2.0])
        assert registry.to_dict()["histograms"] == {}


@pytest.fixture(scope="module")
def obs_trace():
    return generate_trace(
        SyntheticConfig(
            n_requests=2500, n_objects=300, alpha=1.0,
            size_median=20, size_sigma=1.0, size_max=400,
            locality=0.3, seed=5,
        )
    )


class TestSimulateIntegration:
    def test_request_counters_and_snapshot(self, obs_trace):
        registry = MetricsRegistry()
        with use_registry(registry):
            result = simulate(obs_trace, LRUCache(2_000))
        counters = result.metrics["counters"]
        assert counters["sim.requests"] == len(obs_trace)
        assert counters["sim.hits"] + counters["sim.misses"] == len(obs_trace)
        assert counters["sim.hits"] == int(result.hits.sum())
        total_bytes = int(obs_trace.sizes.sum())
        assert counters["sim.hit_bytes"] + counters["sim.miss_bytes"] == total_bytes
        assert counters["sim.evictions"] > 0
        assert result.metrics["spans"]["sim.request_loop"]["count"] == 1

    def test_disabled_registry_yields_no_snapshot(self, obs_trace):
        result = simulate(obs_trace[:200], LRUCache(2_000))
        assert result.metrics is None

    def test_eviction_counter_on_policy(self, obs_trace):
        policy = LRUCache(2_000)
        simulate(obs_trace, policy)
        assert policy.n_evictions > 0
        policy.reset()
        assert policy.n_evictions == 0

    def test_retraining_span_chain(self, obs_trace):
        registry = MetricsRegistry()
        with use_registry(registry):
            policy = LFOOnline(
                obs_trace.footprint() // 8, window=1000,
                gbdt_params=FAST_PARAMS, n_gaps=10,
                label_config=OptLabelConfig(
                    mode="segmented", segment_length=500
                ),
            )
            result = simulate(obs_trace, policy)
        spans = result.metrics["spans"]
        for name in (
            "online.window_close",
            "online.label_solve",
            "online.gbdt_fit",
            "online.model_install",
        ):
            assert spans[name]["count"] == policy.n_retrains, name
        # Stage nesting is visible in the ring buffer.
        parents = {
            (record["name"], record["parent"])
            for record in result.metrics["recent_spans"]
        }
        assert ("online.label_solve", "online.train_window") in parents
        assert ("online.train_window", "online.window_close") in parents
        # The per-request instruments saw (at least) the whole trace —
        # rescoring/restores extract extra feature vectors.
        extract = result.metrics["histograms"]["features.extract_seconds"]
        assert extract["count"] >= len(obs_trace)
        assert result.metrics["histograms"]["gbdt.iteration_seconds"]["count"] > 0

    def test_training_stats_compatible_with_spans(self, obs_trace):
        """last_training_seconds now comes from the tracer but keeps its
        meaning with observability disabled (the default)."""
        policy = LFOOnline(
            obs_trace.footprint() // 8, window=1000,
            gbdt_params=FAST_PARAMS, n_gaps=10,
            label_config=OptLabelConfig(mode="segmented", segment_length=500),
        )
        simulate(obs_trace, policy)
        assert policy.training_stats["last_training_seconds"] > 0.0

    def test_simresult_to_dict_json_safe(self, obs_trace):
        registry = MetricsRegistry()
        with use_registry(registry):
            result = simulate(
                obs_trace, LRUCache(2_000), series_window=500
            )
        as_dict = result.to_dict()
        encoded = json.loads(json.dumps(as_dict))
        assert encoded["policy"] == "LRU"
        assert encoded["n_hits"] == int(result.hits.sum())
        assert len(encoded["series"]) == len(obs_trace) // 500
        assert "hits" not in encoded
        full = result.to_dict(include_hits=True)
        assert len(full["hits"]) == len(obs_trace)
        json.dumps(full)


class TestOnlineLogging:
    def test_skipped_window_logged(self, caplog):
        from tests.test_core_online import ManualExecutor

        trace = Trace(
            [Request(float(i), i % 40, 10) for i in range(900)]
        )
        policy = LFOOnline(
            cache_size=500, window=300, gbdt_params=FAST_PARAMS, n_gaps=5,
            background=True, executor=ManualExecutor(),
            label_config=OptLabelConfig(mode="segmented", segment_length=150),
        )
        with caplog.at_level(logging.INFO, logger="repro.online"):
            for request in trace:
                policy.on_request(request)
        assert policy.n_skipped_retrains == 2
        dropped = [
            record for record in caplog.records
            if "dropping window" in record.getMessage()
        ]
        assert len(dropped) == 2

    def test_failed_retrain_logged_with_traceback(self, caplog):
        from tests.test_core_online import ImmediateExecutor

        trace = Trace(
            [Request(float(i), i % 40, 10) for i in range(600)]
        )
        policy = LFOOnline(
            cache_size=500, window=300, gbdt_params=FAST_PARAMS, n_gaps=5,
            background=True, executor=ImmediateExecutor(),
            label_config=OptLabelConfig(mode="broken"),
        )
        with caplog.at_level(logging.WARNING, logger="repro.online"):
            with pytest.warns(RuntimeWarning, match="retrain failed"):
                for request in trace:
                    policy.on_request(request)
        assert policy.n_failed_retrains >= 1
        failed = [
            record for record in caplog.records
            if "retrain failed" in record.getMessage()
        ]
        assert failed and failed[0].exc_info is not None

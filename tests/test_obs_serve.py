"""Tests for the live HTTP export surface (repro.obs.serve)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    MetricsServer,
    SloEngine,
    SloObjective,
    SloSpec,
    WindowedRegistry,
)


def fetch(port, path):
    """GET http://127.0.0.1:{port}{path} -> (status, body bytes)."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.read(), response.headers
    except urllib.error.HTTPError as error:
        return error.code, error.read(), error.headers


@pytest.fixture
def windowed_registry():
    registry = WindowedRegistry(every_requests=100)
    registry.counter("sim.requests").inc(100)
    registry.counter("sim.hit_bytes").inc(700)
    registry.counter("sim.miss_bytes").inc(300)
    registry.histogram(
        "serve.decision_latency_seconds", bounds=(1e-4, 1e-3)
    ).observe(5e-5)
    registry.roll()
    return registry


class TestMetricsEndpoint:
    def test_serves_prometheus_text(self, windowed_registry):
        with MetricsServer(windowed_registry, port=0) as server:
            status, body, headers = fetch(server.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "repro_sim_requests_total 100" in text
        assert "repro_serve_decision_latency_seconds_count 1" in text

    def test_custom_prefix(self, windowed_registry):
        with MetricsServer(
            windowed_registry, port=0, prefix="cdn"
        ) as server:
            _, body, _ = fetch(server.port, "/metrics")
        assert "cdn_sim_requests_total" in body.decode()


class TestHealthEndpoint:
    def spec(self):
        return SloSpec(
            objectives=(
                SloObjective(
                    name="bhr", kind="window_bhr", min_value=0.5, budget=0.0
                ),
            ),
            horizon=5,
        )

    def test_healthy_returns_200(self, windowed_registry):
        engine = SloEngine(self.spec()).attach(windowed_registry)
        windowed_registry.counter("sim.hit_bytes").inc(700)
        windowed_registry.counter("sim.miss_bytes").inc(300)
        windowed_registry.roll()
        with MetricsServer(windowed_registry, port=0, slo=engine) as server:
            status, body, headers = fetch(server.port, "/health")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["ok"] is True
        assert payload["slo"]["ok"] is True
        assert set(payload) == {"ok", "slo"}

    def test_breached_slo_returns_503(self):
        registry = WindowedRegistry(every_requests=100)
        engine = SloEngine(self.spec()).attach(registry)
        registry.counter("sim.hit_bytes").inc(100)
        registry.counter("sim.miss_bytes").inc(900)  # BHR 0.1 < 0.5
        registry.roll()
        with MetricsServer(registry, port=0, slo=engine) as server:
            status, body, _ = fetch(server.port, "/health")
        assert status == 503
        payload = json.loads(body)
        assert payload["ok"] is False
        assert payload["slo"]["objectives"]["bhr"]["ok"] is False

    def test_detector_breach_clears_after_horizon(self):
        """A detector violation answers 503 until ``horizon`` clean
        windows age it out, then /health is 200 again."""
        registry = WindowedRegistry(every_requests=100)
        engine = SloEngine(SloSpec(
            objectives=(
                SloObjective("training_halted", "training_halted",
                             max_value=0.0, budget=0.0),
            ),
            horizon=3,
        )).attach(registry)
        halted = registry.gauge("resilience.training_halted")
        halted.set(1.0)
        registry.roll()
        with MetricsServer(registry, port=0, slo=engine) as server:
            status, body, _ = fetch(server.port, "/health")
            assert status == 503
            assert json.loads(body)["slo"]["objectives"][
                "training_halted"]["violations"] == 1
            halted.set(0.0)
            for clean in range(3):
                assert fetch(server.port, "/health")[0] == 503
                registry.roll()
            status, body, _ = fetch(server.port, "/health")
        assert status == 200
        assert json.loads(body)["ok"] is True

    def test_no_attachments_is_vacuously_healthy(self, windowed_registry):
        with MetricsServer(windowed_registry, port=0) as server:
            status, body, _ = fetch(server.port, "/health")
        assert status == 200
        assert json.loads(body) == {"ok": True}


class TestWindowsEndpoint:
    def test_serves_ring_dump(self, windowed_registry):
        with MetricsServer(windowed_registry, port=0) as server:
            status, body, _ = fetch(server.port, "/windows")
        assert status == 200
        payload = json.loads(body)
        assert payload["mode"] == "requests"
        assert len(payload["windows"]) == 1
        assert payload["windows"][0]["counters"]["sim.requests"] == 100

    def test_plain_registry_reports_disabled(self):
        registry = MetricsRegistry()
        registry.counter("sim.requests").inc(5)
        with MetricsServer(registry, port=0) as server:
            status, body, _ = fetch(server.port, "/windows")
        assert status == 200
        payload = json.loads(body)
        assert payload["mode"] == "disabled"
        assert payload["windows"] == []


class TestServerLifecycle:
    def test_unknown_path_is_404(self, windowed_registry):
        with MetricsServer(windowed_registry, port=0) as server:
            status, body, _ = fetch(server.port, "/nope")
        assert status == 404
        payload = json.loads(body)
        assert payload["endpoints"] == ["/metrics", "/health", "/windows"]

    def test_ephemeral_port_resolved(self, windowed_registry):
        server = MetricsServer(windowed_registry, port=0)
        assert server.port != 0
        server.stop()

    def test_start_is_idempotent(self, windowed_registry):
        server = MetricsServer(windowed_registry, port=0).start()
        try:
            assert server.start() is server
            status, _, _ = fetch(server.port, "/metrics")
            assert status == 200
        finally:
            server.stop()

    def test_stop_closes_listener(self, windowed_registry):
        server = MetricsServer(windowed_registry, port=0).start()
        port = server.port
        server.stop()
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=1.0
            )

    def test_live_updates_between_scrapes(self, windowed_registry):
        with MetricsServer(windowed_registry, port=0) as server:
            _, before, _ = fetch(server.port, "/metrics")
            windowed_registry.counter("sim.requests").inc(100)
            windowed_registry.roll()
            _, after, _ = fetch(server.port, "/metrics")
            _, windows, _ = fetch(server.port, "/windows")
        assert "repro_sim_requests_total 100" in before.decode()
        assert "repro_sim_requests_total 200" in after.decode()
        assert len(json.loads(windows)["windows"]) == 2

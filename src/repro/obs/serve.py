"""Zero-dependency live export: /metrics, /health, /windows over HTTP.

A stdlib ``http.server`` wrapper that makes a running registry scrapeable
without adding a single package: ``/metrics`` serves the Prometheus text
exposition, ``/health`` the SLO engine's JSON verdict (HTTP 503 while an
objective is breached, so a plain liveness probe works), and
``/windows`` the telemetry ring dump.

The server runs on a daemon thread and reads only snapshot methods that
take the registry lock briefly — the simulation hot path never blocks on
a scrape.  ``port=0`` binds an ephemeral port (tests); the bound port is
on :attr:`MetricsServer.port` after :meth:`start`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .registry import MetricsRegistry, NullRegistry
from .slo import SloEngine

__all__ = ["MetricsServer"]


class MetricsServer:
    """Serve a registry's export surfaces over HTTP.

    Args:
        registry: any registry; windowed ones also populate ``/windows``.
        port: TCP port (0 = ephemeral, read :attr:`port` after start).
        host: bind address (loopback by default — this is a diagnostics
            port, not a public service).
        slo: optional :class:`~repro.obs.slo.SloEngine` whose verdict
            feeds ``/health`` and decides the 200-vs-503 status code.
        prefix: Prometheus metric-name prefix for ``/metrics``.
    """

    def __init__(
        self,
        registry: MetricsRegistry | NullRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        slo: SloEngine | None = None,
        prefix: str = "repro",
    ) -> None:
        self.registry = registry
        self.slo = slo
        self.prefix = prefix
        self._httpd = ThreadingHTTPServer(
            (host, port), self._make_handler()
        )
        self._thread: threading.Thread | None = None

    # -- request handling ----------------------------------------------------

    def health_payload(self) -> tuple[bool, dict]:
        """``(ok, body)`` for the ``/health`` endpoint (also used by the
        CLI's one-shot ``--check`` so both agree on the verdict)."""
        body: dict = {"ok": True}
        if self.slo is not None:
            body["slo"] = self.slo.verdict()
            body["ok"] = body["slo"]["ok"]
        return body["ok"], body

    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    text = server.registry.to_prometheus(
                        prefix=server.prefix
                    )
                    self._reply(
                        200, text, "text/plain; version=0.0.4; charset=utf-8"
                    )
                elif path == "/health":
                    ok, body = server.health_payload()
                    self._reply(
                        200 if ok else 503,
                        json.dumps(body, indent=2),
                        "application/json",
                    )
                elif path == "/windows":
                    windows = getattr(
                        server.registry, "to_windows_dict", None
                    )
                    body = windows() if windows is not None else {
                        "mode": "disabled",
                        "windows": [],
                    }
                    self._reply(
                        200, json.dumps(body, indent=2), "application/json"
                    )
                else:
                    self._reply(
                        404,
                        json.dumps(
                            {
                                "error": "not found",
                                "endpoints": [
                                    "/metrics",
                                    "/health",
                                    "/windows",
                                ],
                            }
                        ),
                        "application/json",
                    )

            def _reply(
                self, status: int, body: str, content_type: str
            ) -> None:
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, format: str, *args) -> None:
                pass  # scrapes are not run output

        return Handler

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound TCP port (resolves ``port=0``)."""
        return self._httpd.server_address[1]

    def start(self) -> "MetricsServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        if self._thread is not None:
            # shutdown() blocks until serve_forever acknowledges, so it
            # must only run when the serving thread actually exists.
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

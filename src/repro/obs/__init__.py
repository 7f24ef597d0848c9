"""Observability: metrics, tracing spans, per-stage pipeline instrumentation.

The paper's "lightweight" claim is only checkable if every stage of the
Figure-2 loop is measured without disturbing the request path.  This
package provides the instruments the rest of ``repro`` reports to:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms,
  and a nested-span tracer with bounded-memory aggregation;
* :class:`NullRegistry` — the disabled fast path (every operation a no-op);
* exporters — ``to_dict()`` snapshots, JSON / JSON-lines files, and the
  Prometheus text format.

Library code looks up the process default via :func:`get_registry` (a
``NullRegistry`` until one is installed), so importing ``repro`` costs
nothing; enable collection with::

    from repro.obs import MetricsRegistry, use_registry

    with use_registry(MetricsRegistry()) as registry:
        result = simulate(trace, policy)
    print(registry.to_prometheus())

``lfo simulate/compare --metrics-out m.json`` does exactly this
from the command line.

On top of the cumulative registry sits the streaming layer:

* :class:`WindowedRegistry` — delta-encoded telemetry windows in a
  bounded ring (``repro.obs.windows``);
* :class:`SloEngine` — declarative objectives with error-budget burn
  tracking, the Page-Hinkley / PSI drift detectors among them
  (``repro.obs.slo``);
* :class:`MetricsServer` — stdlib HTTP export of ``/metrics``,
  ``/health``, ``/windows`` (``repro.obs.serve``).
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "export": ("JsonlSink", "render_prometheus", "write_json"),
    "fold": ("fold_deltas",),
    "serve": ("MetricsServer",),
    "slo": ("SloEngine", "SloObjective", "SloSpec"),
    "windows": ("WindowedRegistry", "WindowSnapshot", "estimate_quantile"),
    "registry": (
        "DEFAULT_TIME_BUCKETS", "Counter", "Gauge", "Histogram",
        "MetricsRegistry", "NullRegistry", "get_registry", "set_registry",
        "use_registry",
    ),
    "tracing": ("NullSpan", "Span", "SpanAggregate", "Tracer"),
})

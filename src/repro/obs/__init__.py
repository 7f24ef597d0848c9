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

``lfo simulate/compare/experiment --metrics-out m.json`` does exactly this
from the command line.

On top of the cumulative registry sits the streaming layer:

* :class:`WindowedRegistry` — delta-encoded telemetry windows in a
  bounded ring (``repro.obs.windows``);
* :class:`SloEngine` — declarative objectives with error-budget burn
  tracking, the Page-Hinkley / PSI / EWMA drift detectors among them
  (``repro.obs.slo``);
* :class:`MetricsServer` — stdlib HTTP export of ``/metrics``,
  ``/health``, ``/windows`` (``repro.obs.serve``).
"""

from .export import JsonlSink, render_prometheus, write_json
from .fold import fold_deltas
from .serve import MetricsServer
from .slo import SloEngine, SloObjective, SloSpec
from .windows import WindowedRegistry, WindowSnapshot, estimate_quantile
from .registry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from .tracing import NullSpan, Span, SpanAggregate, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_TIME_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
    "Span",
    "NullSpan",
    "SpanAggregate",
    "Tracer",
    "JsonlSink",
    "fold_deltas",
    "render_prometheus",
    "write_json",
    "WindowedRegistry",
    "WindowSnapshot",
    "estimate_quantile",
    "SloEngine",
    "SloObjective",
    "SloSpec",
    "MetricsServer",
]

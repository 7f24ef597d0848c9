"""Exporters for registry snapshots: JSON file, JSON-lines sink, Prometheus.

All exporters consume the plain-dict snapshot shape produced by
``MetricsRegistry.to_dict()`` rather than the registry itself, so snapshots
can be exported long after the run (e.g. from a ``SimResult.metrics``
field or a benchmark record).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # annotation only; registry does not import exporters.
    from .registry import MetricsRegistry, NullRegistry

__all__ = ["prom_series_name", "render_prometheus", "write_json", "JsonlSink"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LEADING_DIGIT_RE = re.compile(r"^[0-9]")


def _prom_name(prefix: str, name: str) -> str:
    """Sanitise a dotted metric name into a valid Prometheus identifier.

    Invalid characters collapse to ``_``; a name that would start with a
    digit (possible with an empty prefix) gets a leading underscore, per
    the ``[a-zA-Z_:][a-zA-Z0-9_:]*`` metric-name grammar.
    """
    flat = _NAME_RE.sub("_", f"{prefix}_{name}" if prefix else name)
    if _LEADING_DIGIT_RE.match(flat):
        flat = "_" + flat
    return flat


def prom_series_name(name: str, kind: str, prefix: str = "repro") -> str:
    """The exposition-format series name for one instrument.

    Counters carry the conventional ``_total`` suffix; gauges expose the
    sanitised name directly; histograms return the metric *family* base
    name (the ``_bucket``/``_sum``/``_count`` series hang off it).  This
    is the single naming authority shared by :func:`render_prometheus`
    and the generated docs metric table, so the documented
    exposition names cannot drift from what the exporter emits.
    """
    base = _prom_name(prefix, name)
    return base + "_total" if kind == "counter" else base


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash, double
    quote, and line feed are the three characters with escape sequences."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Conformance notes (pinned by ``tests/test_obs.py``):

    * counters get the ``_total`` suffix;
    * histogram ``_bucket`` series are *cumulative*, always end with a
      ``le="+Inf"`` bucket equal to ``_count``, and are joined by
      ``_sum``/``_count`` samples; a non-finite explicit bound (legacy
      snapshots) folds into the ``+Inf`` bucket instead of emitting an
      invalid ``le="inf"`` sample;
    * metric names are sanitised to the exposition grammar and label
      values (span names) are backslash-escaped.

    Span aggregates are exposed as a ``<prefix>_span_seconds`` summary
    keyed by a ``span`` label.
    """
    lines: list[str] = []

    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = prom_series_name(name, "counter", prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = prom_series_name(name, "gauge", prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")

    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        metric = prom_series_name(name, "histogram", prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in hist["buckets"]:
            cumulative += count
            if bound == "+Inf" or not math.isfinite(float(bound)):
                # The overflow bucket (and any stray non-finite bound)
                # lands in the single trailing +Inf sample below.
                continue
            le = repr(float(bound))
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{metric}_sum {hist['total']}")
        lines.append(f"{metric}_count {hist['count']}")

    spans = snapshot.get("spans", {})
    if spans:
        base = f"{prefix}_span_seconds"
        lines.append(f"# TYPE {base} summary")
        for name, agg in sorted(spans.items()):
            label = f'{{span="{_escape_label_value(name)}"}}'
            lines.append(f"{base}_count{label} {agg['count']}")
            lines.append(f"{base}_sum{label} {agg['total_seconds']}")
            lines.append(f"{base}_max{label} {agg['max_seconds']}")

    return "\n".join(lines) + ("\n" if lines else "")


def write_json(snapshot: dict, path: Union[str, Path]) -> None:
    """Write one snapshot as a pretty-printed JSON document."""
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2)
        handle.write("\n")


class JsonlSink:
    """Append-mode JSON-lines sink for periodic snapshots.

    One ``write(snapshot)`` appends one line, so a long run can be sampled
    (say once per window) and replayed later with any JSONL tooling.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def write(self, snapshot: dict) -> None:
        with open(self.path, "a") as handle:
            handle.write(json.dumps(snapshot, separators=(",", ":")))
            handle.write("\n")

    def attach(self, registry: "MetricsRegistry | NullRegistry") -> "JsonlSink":
        """Stream every closed window to the sink, one line per window.

        Subscribes to the registry's ``on_close`` hook, so lines appear
        as windows close — including the tail window closed by ``flush``,
        which fires callbacks exactly once even when shutdown paths race.
        On a non-windowed registry ``on_close`` is a parity no-op, so
        attaching is safe and writes nothing.
        """
        registry.on_close(lambda snapshot: self.write(snapshot.as_dict()))
        return self

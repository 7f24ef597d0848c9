"""The reconciled metric surface: code vs docs vs Prometheus exposition.

The observability layer now registers ~60 instruments from call sites
spread across the tree.  Three views of that surface must agree:

* the **code** view — every literal name passed to a
  ``registry.counter/gauge/histogram`` factory call;
* the **docs** view — the generated metric-reference table in
  ``docs/architecture.md`` (between the :data:`MARKER_START` /
  :data:`MARKER_END` comments);
* the **exposition** view — the Prometheus series name each instrument
  maps to (``repro.obs.export.prom_series_name``), which must be
  collision-free after dot-to-underscore sanitisation.

:func:`collect_metric_surface` extracts the code view from a
:class:`~repro.analysis.project.ProjectModel` (``obs-name-unique`` and
``xf-metric-surface`` both read it); :func:`render_metrics_markdown`
renders the docs view from it and :func:`splice_doc_table` puts that
between the markers.  Because the table is generated, "the docs agree
with the code" is checked by generating it again and comparing — which is
also all ``tools/update_metrics_doc.py`` does before writing.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .base import dotted_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .project import ProjectModel

__all__ = [
    "FACTORY_ATTRS",
    "MARKER_END",
    "MARKER_START",
    "MetricInfo",
    "collect_metric_surface",
    "iter_factory_calls",
    "render_metrics_markdown",
    "splice_doc_table",
]

MARKER_START = "<!-- metric-surface:begin -->"
MARKER_END = "<!-- metric-surface:end -->"

#: Span/event names live in their own namespace (no exposition series of
#: their own beyond the span summary) and are excluded from the table.
_TABLE_KINDS = ("counter", "gauge", "histogram")


#: Instrument/span/event factory methods on registries and tracers.
FACTORY_ATTRS = frozenset({"counter", "gauge", "histogram", "span", "event"})


class MetricInfo:
    """One instrument: dotted name, kind, exposition series, first site."""

    __slots__ = ("name", "kind", "prom", "path", "line", "col")

    def __init__(
        self, name: str, kind: str, prom: str, path: str, line: int, col: int
    ) -> None:
        self.name = name
        self.kind = kind
        self.prom = prom
        self.path = path
        self.line = line
        self.col = col


def prom_series_name(name: str, kind: str, prefix: str = "repro") -> str:
    """Exposition series name (re-exported from ``repro.obs.export``)."""
    from ..obs.export import prom_series_name as _impl

    return _impl(name, kind, prefix)


def _receiver_is_registry(func: ast.Attribute) -> bool:
    """Heuristic: the call target reads like a registry/tracer object."""
    receiver = func.value
    text = dotted_name(receiver).lower()
    if "registry" in text or "tracer" in text:
        return True
    if isinstance(receiver, ast.Call):
        return dotted_name(receiver.func).rsplit(".", 1)[-1] in (
            "get_registry",
        )
    return False


def iter_factory_calls(
    tree: ast.Module,
) -> "Iterator[tuple[str, ast.Call, list[ast.FunctionDef | ast.AsyncFunctionDef]]]":
    """Yield ``(kind, call, enclosing_functions)`` for every
    registry.counter/gauge/histogram/span call in ``tree``."""

    def walk(node: ast.AST, stack: list) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in FACTORY_ATTRS
                and _receiver_is_registry(child.func)
            ):
                yield child.func.attr, child, stack
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, stack + [child])
            else:
                yield from walk(child, stack)

    yield from walk(tree, [])


def collect_metric_surface(model: "ProjectModel") -> list[MetricInfo]:
    """Every literal counter/gauge/histogram name registered in code.

    One entry per ``(name, kind)`` pair, anchored at the first
    registration site in ``(path, line, col)`` order; span/event names
    are excluded (own namespace).  Kind conflicts are *not* collapsed: a
    name registered as two kinds yields two entries, which is what
    ``obs-name-unique`` reports.
    """
    sites: dict[tuple[str, str], tuple[str, int, int]] = {}
    for ctx in model.contexts.values():
        for kind, call, _stack in iter_factory_calls(ctx.tree):
            if kind not in _TABLE_KINDS:
                continue
            name_arg = call.args[0] if call.args else None
            if not (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
            ):
                continue
            key = (name_arg.value, kind)
            site = (ctx.path, name_arg.lineno, name_arg.col_offset + 1)
            if key not in sites or site < sites[key]:
                sites[key] = site
    return [
        MetricInfo(name, kind, prom_series_name(name, kind), *site)
        for (name, kind), site in sorted(sites.items())
    ]


def render_metrics_markdown(infos: list[MetricInfo]) -> str:
    """The docs table body (what sits between the generated markers)."""
    lines = [
        "| Metric | Kind | Prometheus series |",
        "| --- | --- | --- |",
    ]
    for info in infos:
        lines.append(f"| `{info.name}` | {info.kind} | `{info.prom}` |")
    return "\n".join(lines)


def splice_doc_table(text: str, table: str) -> str | None:
    """Replace the between-markers block of ``text`` with ``table``.

    Returns the updated document, or None when the markers are absent
    (the caller decides whether that is an error or a fresh insert).
    """
    start = text.find(MARKER_START)
    end = text.find(MARKER_END)
    if start < 0 or end < 0 or end < start:
        return None
    head = text[: start + len(MARKER_START)]
    tail = text[end:]
    return f"{head}\n{table}\n{tail}"

#!/usr/bin/env python
"""Regenerate the metric reference table in ``docs/architecture.md``.

The table between the ``<!-- metric-surface:begin/end -->`` markers is
generated from the code: every literal name passed to a
``registry.counter/gauge/histogram`` call under ``src/``, ``benchmarks/``
and ``examples/``, with the Prometheus series the exporter emits for it.
``tests/test_source_invariants.py`` reads the same collector: its
``xf-metric-surface`` check fails when regenerating the table would
change it, and its ``obs-*`` checks walk the same factory calls.  Run
this after adding, renaming or removing a metric::

    python tools/update_metrics_doc.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.export import prom_series_name  # noqa: E402

DOC = ROOT / "docs" / "architecture.md"
#: The trees the program is made of, relative to the repo root.
ROOTS = ("src", "benchmarks", "examples")
MARKER_START = "<!-- metric-surface:begin -->"
MARKER_END = "<!-- metric-surface:end -->"
#: Instrument/span/event factory methods on registries and tracers.
FACTORY_ATTRS = frozenset({"counter", "gauge", "histogram", "span", "event"})
#: Span/event names are their own namespace; only these kinds get rows.
TABLE_KINDS = ("counter", "gauge", "histogram")


class SourceFile(NamedTuple):
    """One parsed file: repo-relative path, dotted module name, AST."""

    path: str
    module: str
    text: str
    tree: ast.Module


class MetricInfo(NamedTuple):
    """One instrument: name, kind, exposition series, first site."""

    name: str
    kind: str
    prom: str
    path: str
    line: int


def source_file(path: str, text: str) -> SourceFile:
    """Parse ``text`` as the file at repo-relative ``path``
    (``src/repro/sim/runner.py`` is module ``repro.sim.runner``)."""
    parts = list(Path(path).with_suffix("").parts)
    if parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return SourceFile(path, ".".join(parts), text, ast.parse(text, path))


def parse_tree(root: Path = ROOT) -> list[SourceFile]:
    """Every ``.py`` file under the program's roots, parsed, not imported."""
    return [
        source_file(path.relative_to(root).as_posix(), path.read_text("utf-8"))
        for name in ROOTS
        for path in sorted((root / name).rglob("*.py"))
        if "__pycache__" not in path.parts
    ]


def dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute/name chains; '' for anything dynamic."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return ""


def _is_registry(receiver: ast.AST) -> bool:
    """Heuristic: the call target reads like a registry/tracer object."""
    text = dotted_name(receiver).lower()
    if "registry" in text or "tracer" in text:
        return True
    return isinstance(receiver, ast.Call) and (
        dotted_name(receiver.func).rsplit(".", 1)[-1] == "get_registry"
    )


def iter_factory_calls(tree: ast.AST, stack: tuple = ()) -> Iterator[tuple]:
    """Yield ``(kind, call, enclosing_functions)`` for every
    registry.counter/gauge/histogram/span/event call in ``tree``."""
    for child in ast.iter_child_nodes(tree):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in FACTORY_ATTRS
            and _is_registry(child.func.value)
        ):
            yield child.func.attr, child, stack
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from iter_factory_calls(child, (*stack, child) if inner else stack)


def collect_metric_surface(sources: list[SourceFile]) -> list[MetricInfo]:
    """Every literal counter/gauge/histogram name registered in code.

    One entry per ``(name, kind)`` pair, anchored at its first site; a
    name registered as two kinds yields two entries.
    """
    sites: dict[tuple[str, str], tuple[str, int]] = {}
    for src in sources:
        for kind, call, _stack in iter_factory_calls(src.tree):
            arg = call.args[0] if call.args else None
            if kind in TABLE_KINDS and isinstance(arg, ast.Constant) and (
                isinstance(arg.value, str)
            ):
                site = (src.path, arg.lineno)
                sites[arg.value, kind] = min(sites.get((arg.value, kind), site), site)
    return [
        MetricInfo(name, kind, prom_series_name(name, kind), *site)
        for (name, kind), site in sorted(sites.items())
    ]


def render_metrics_markdown(infos: list[MetricInfo]) -> str:
    """The docs table body (what sits between the generated markers)."""
    rows = [f"| `{i.name}` | {i.kind} | `{i.prom}` |" for i in infos]
    return "\n".join(
        ["| Metric | Kind | Prometheus series |", "| --- | --- | --- |", *rows]
    )


def splice_doc_table(text: str, table: str) -> str | None:
    """``text`` with ``table`` between the markers; None without them."""
    start, end = text.find(MARKER_START), text.find(MARKER_END)
    if start < 0 or end < start:
        return None
    return f"{text[: start + len(MARKER_START)]}\n{table}\n{text[end:]}"


def main() -> int:
    table = render_metrics_markdown(collect_metric_surface(parse_tree()))
    text = DOC.read_text(encoding="utf-8")
    updated = splice_doc_table(text, table)
    if updated is None:
        print(f"error: metric-surface markers not found in {DOC}", file=sys.stderr)
        return 2
    if updated == text:
        print("metric reference table up to date")
        return 0
    DOC.write_text(updated, encoding="utf-8")
    print(f"rewrote metric reference table in {DOC}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

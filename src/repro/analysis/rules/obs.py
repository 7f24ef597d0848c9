"""Observability hygiene rules.

The metrics registry keys instruments by name at call sites spread across
the tree, so two classes of mistakes are cheap to make and expensive to
debug: dynamic names (an f-string interpolating an object id turns one
counter into a million — the classic cardinality bomb) and one name used
as two different instrument kinds in different files.  Names are therefore
required to be literal, dotted snake_case, and kind-unique repo-wide.
``obs-name-unique`` and ``xf-metric-surface`` both read the registered
surface (:func:`~repro.analysis.metrics.collect_metric_surface`); the
latter checks that the generated reference table in
``docs/architecture.md`` is what generating it now yields and that no two
Prometheus exposition names collide after sanitisation.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING

from ..base import Rule, Violation
from ..metrics import (
    FACTORY_ATTRS,
    MARKER_END,
    MARKER_START,
    collect_metric_surface,
    iter_factory_calls,
    render_metrics_markdown,
    splice_doc_table,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..project import ProjectModel

__all__ = [
    "MetricSurfaceRule",
    "ObsLiteralNameRule",
    "ObsNameStyleRule",
    "ObsNameUniqueRule",
]

#: Dotted snake_case: ``online.skipped_retrains``, ``sim.hits`` ...
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")


def _is_forwarded_param(name_arg: ast.AST, stack: list) -> bool:
    """True when the name argument is a parameter the enclosing wrapper
    (itself named counter/gauge/histogram/span/event) forwards verbatim —
    the registry implementation layer, not an instrumentation call site."""
    if not isinstance(name_arg, ast.Name):
        return False
    for fn in stack:
        if fn.name not in FACTORY_ATTRS:
            continue
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if any(p.arg == name_arg.id for p in params):
            return True
    return False


class ObsLiteralNameRule(Rule):
    """Metric/span names must be string literals."""

    rule_id = "obs-literal-name"
    summary = (
        "registry.counter/gauge/histogram/span names must be literal "
        "strings — an f-string or variable name interpolates per-object "
        "values into the instrument key and explodes cardinality"
    )

    def visit_Module(self, node: ast.Module) -> None:
        for kind, call, stack in iter_factory_calls(node):
            name_arg = call.args[0] if call.args else None
            if name_arg is None or _is_forwarded_param(name_arg, stack):
                continue
            if isinstance(name_arg, ast.JoinedStr):
                self.report(
                    name_arg,
                    f"f-string {kind} name is a cardinality bomb; use a "
                    "literal name and put the varying part in the value",
                )
            elif not (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
            ):
                self.report(
                    name_arg,
                    f"{kind} name must be a literal string, not a computed "
                    "expression",
                )


class ObsNameStyleRule(Rule):
    """Literal metric/span names must be dotted snake_case."""

    rule_id = "obs-name-style"
    summary = (
        "metric/span names are dotted snake_case "
        "(`component.metric_name`) so exporters can prefix and group them"
    )

    def visit_Module(self, node: ast.Module) -> None:
        for kind, call, _stack in iter_factory_calls(node):
            name_arg = call.args[0] if call.args else None
            if (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
                and not _NAME_RE.match(name_arg.value)
            ):
                self.report(
                    name_arg,
                    f"{kind} name {name_arg.value!r} is not dotted "
                    "snake_case (expected e.g. 'online.failed_retrains')",
                )


class ObsNameUniqueRule(Rule):
    """One instrument name maps to exactly one instrument kind repo-wide."""

    rule_id = "obs-name-unique"
    summary = (
        "a metric name registered as two different instrument kinds "
        "(counter vs gauge vs histogram) aliases state in the registry; "
        "every name must have a single kind across the tree"
    )

    def check(self, model: "ProjectModel") -> list[Violation]:
        by_name: dict[str, list] = {}
        for info in collect_metric_surface(model):
            by_name.setdefault(info.name, []).append(info)
        violations = []
        for name, infos in by_name.items():
            if len(infos) < 2:
                continue
            sites = ", ".join(
                f"{info.kind} at {info.path}:{info.line}" for info in infos
            )
            for info in infos:
                violations.append(
                    self.report_at(
                        path=info.path,
                        line=info.line,
                        col=info.col,
                        message=(
                            f"metric name {name!r} is registered as "
                            f"multiple instrument kinds ({sites})"
                        ),
                    )
                )
        return violations


class MetricSurfaceRule(Rule):
    rule_id = "xf-metric-surface"
    summary = (
        "The docs metric reference table is stale against the registered "
        "metric surface, or two metrics share a Prometheus series name"
    )

    #: The docs artifact carrying the generated reference table.
    doc_path = "docs/architecture.md"

    def check(self, model: "ProjectModel") -> list[Violation]:
        out: list[Violation] = []
        infos = collect_metric_surface(model)

        # Post-sanitisation exposition collisions (code-only check).
        by_prom: dict[str, object] = {}
        for info in infos:
            other = by_prom.get(info.prom)
            if other is not None and other.name != info.name:
                out.append(
                    self.report_at(
                        path=info.path,
                        line=info.line,
                        col=1,
                        message=(
                            f"metric `{info.name}` and `{other.name}` "
                            f"({other.path}:{other.line}) both expose "
                            f"Prometheus series `{info.prom}`; dotted "
                            f"names must stay distinct after "
                            f"sanitisation"
                        ),
                    )
                )
            else:
                by_prom.setdefault(info.prom, info)

        # The table is generated, so it is checked the way it is made.
        text = model.read_text(self.doc_path)
        updated = splice_doc_table(text or "", render_metrics_markdown(infos))
        if updated is None:
            out.append(
                self.report_at(
                    path=self.doc_path,
                    line=1,
                    col=1,
                    message=(
                        f"metric reference table not found in "
                        f"`{self.doc_path}`: expected a generated table "
                        f"between `{MARKER_START}` and `{MARKER_END}` "
                        f"(regenerate with tools/update_metrics_doc.py)"
                    ),
                )
            )
        elif updated != text:
            out.append(
                self.report_at(
                    path=self.doc_path,
                    line=text[: text.index(MARKER_START)].count("\n") + 1,
                    col=1,
                    message=(
                        f"metric reference table in `{self.doc_path}` is "
                        f"stale: it is not what the registered metric "
                        f"surface generates — run "
                        f"`python tools/update_metrics_doc.py`"
                    ),
                )
            )
        return out

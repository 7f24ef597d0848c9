"""The analysis engine: one pass — build the model, run every rule, apply
the suppression markers once, report.

:func:`run_analysis` builds one :class:`~repro.analysis.project.ProjectModel`
over the default roots, hands it to every selected rule, and returns an
:class:`AnalysisReport`.  ``paths`` narrows which files' findings are
*reported*, never what the rules see: a whole-program rule run over one
file would report everything the rest of the program explains.
:func:`check_sources` is the same pass over in-memory fixtures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .base import Rule, Violation
from .project import ProjectModel, display_path, iter_python_files
from .rules import all_rules

__all__ = ["AnalysisReport", "check_sources", "run_analysis"]


@dataclass
class AnalysisReport:
    """Everything one run produced, ready for a reporter."""

    violations: list[Violation]
    files_checked: int
    rule_ids: list[str]
    parse_errors: list[Violation] = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
        return counts


def run_analysis(
    paths: Sequence[str | Path] | None = None,
    *,
    select: list[str] | None = None,
    root: str | Path | None = None,
) -> AnalysisReport:
    """Run the (selected) rules over the tree under ``root`` (default: cwd).

    With ``paths``, only findings anchored in those files/directories are
    reported (and counted in ``files_checked``); without, every finding
    is, including ones anchored in non-Python artifacts such as the docs
    metric table.  Raises ValueError on an unknown ``select`` id.
    """
    start = time.perf_counter()
    rules = all_rules(select)
    base = Path(root) if root is not None else Path.cwd()
    model = ProjectModel.build(paths, root=base)
    violations = _check_model(model, rules)
    parse_errors = list(model.parse_errors)
    files_checked = len(model.contexts) + len(parse_errors)
    if paths is not None:
        shown = {display_path(p, base) for p in iter_python_files(paths)}
        violations = [v for v in violations if v.path in shown]
        parse_errors = [v for v in parse_errors if v.path in shown]
        files_checked = len(shown)
    return AnalysisReport(
        violations=violations,
        files_checked=files_checked,
        rule_ids=[rule.rule_id for rule in rules],
        parse_errors=parse_errors,
        duration_seconds=time.perf_counter() - start,
    )


def check_sources(
    sources: Mapping[str, str],
    *,
    docs: Mapping[str, str] | None = None,
    select: list[str] | None = None,
) -> list[Violation]:
    """Run the rules over in-memory ``{module: source}`` fixtures (tests).

    ``docs`` feeds artifacts such as the metric reference table.  Only
    findings anchored in the fixture's own files (sources and docs) come
    back, so a fixture without a docs table is not told it lacks one.
    """
    model = ProjectModel.from_sources(sources, docs=docs)
    own = {ctx.path for ctx in model.contexts.values()} | set(docs or ())
    found = _check_model(model, all_rules(select))
    return [v for v in found if v.path in own]


def _check_model(model: ProjectModel, rules: list[Rule]) -> list[Violation]:
    """Every rule's findings over ``model``, minus the ones a
    ``# lint: ignore[...]`` / ``ignore-next-line[...]`` marker silences,
    sorted by location.  Findings in non-Python artifacts (no context)
    cannot be suppressed."""
    contexts = {ctx.path: ctx for ctx in model.contexts.values()}
    kept: list[Violation] = []
    for rule in rules:
        for violation in rule.check(model):
            ctx = contexts.get(violation.path)
            if ctx is None or not ctx.suppressed_at(
                violation.rule_id, violation.line
            ):
                kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return kept

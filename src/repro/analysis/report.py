"""Reporters: render an :class:`AnalysisReport` as text or JSON."""

from __future__ import annotations

import json

from .engine import AnalysisReport

__all__ = ["render_json", "render_text"]


def render_text(report: AnalysisReport) -> str:
    """Human-readable report: one line per violation plus a summary."""
    lines = [v.render() for v in report.parse_errors + report.violations]
    total = len(report.violations) + len(report.parse_errors)
    if total:
        counts = report.counts_by_rule()
        breakdown = ", ".join(
            f"{rule}={n}" for rule, n in sorted(counts.items())
        )
        lines.append("")
        lines.append(
            f"{total} violation(s) in {report.files_checked} file(s)"
            + (f" ({breakdown})" if breakdown else "")
        )
    else:
        lines.append(
            f"ok: {report.files_checked} file(s) clean "
            f"({len(report.rule_ids)} rules)"
        )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable report (the shape CI archives as an artifact)."""
    document = {
        "ok": report.ok,
        "files_checked": report.files_checked,
        "rules": report.rule_ids,
        "counts": report.counts_by_rule(),
        "violations": [v.as_dict() for v in report.violations],
        "parse_errors": [v.as_dict() for v in report.parse_errors],
        "duration_seconds": round(report.duration_seconds, 3),
    }
    return json.dumps(document, indent=2)

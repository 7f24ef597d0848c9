"""Static analysis for the repo's own invariants (``lfo lint``).

The production claims this codebase makes — deterministic relabeling,
lock-free request path, bounded-cardinality observability — are invariants
of the *source*, so they are enforced by an AST-level checker rather than
review comments.  The framework is self-contained (stdlib ``ast`` only)
and has one pass: parse the program, run every rule over it, apply the
suppression markers, report.  The public names:

* :class:`Rule` — the plugin API; each rule owns a stable ``rule_id``
  used by ``--select`` and suppressions.  A visitor rule overrides
  ``visit_*``; a repo-wide rule overrides ``check(model)``;
* :class:`ProjectModel` — what ``check`` receives: every parsed
  :class:`FileContext`, plus the docs the metric table lives in;
* :func:`run_analysis` — build the model over the tree, run the
  (selected) rules, return an :class:`AnalysisReport` of
  :class:`Violation` findings; ``paths`` narrows what is reported, never
  what is analysed;
* :func:`check_sources` — the same pass over in-memory sources (tests);
* :func:`render_text` / :func:`render_json` — reporters;
* :data:`ALL_RULES` / :func:`all_rules` / :func:`rule_ids` — the rule
  registry; :func:`iter_python_files` — file discovery;
* :func:`collect_metric_surface` / :func:`render_metrics_markdown` — the
  registered metric surface and the docs table generated from it;
* ``# lint: ignore[rule-id]`` anywhere in a file suppresses that rule for
  the whole file; ``# lint: ignore-next-line[rule-id]`` suppresses it on
  the next line only (always pair either with a justification comment).

The built-in suite lives in :mod:`repro.analysis.rules`; see
``docs/architecture.md`` ("Static analysis & invariants") for the rule
catalogue.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "base": ("FileContext", "Rule", "Violation"),
    "engine": ("AnalysisReport", "check_sources", "run_analysis"),
    "metrics": ("collect_metric_surface", "render_metrics_markdown"),
    "project": ("ProjectModel", "iter_python_files"),
    "report": ("render_json", "render_text"),
    "rules": ("ALL_RULES", "all_rules", "rule_ids"),
})

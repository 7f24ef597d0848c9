"""Whole-program rules.

Each rule here overrides :meth:`Rule.check` and reads the
:class:`repro.analysis.project.ProjectModel` as a whole instead of one
file's AST, which is what lets it see the defect classes a visitor
structurally cannot:

* ``xf-rng-taint`` — a deterministic-scope function calling out into a
  helper module that (transitively) reads the wall clock or draws from a
  process-global RNG.  The ``det-*`` visitor rules only see direct
  uses; this rule walks the call graph with the dataflow summaries and
  reports at the boundary-crossing call site with the full chain.
* ``xf-policy-contract`` — ``CachePolicy`` subclasses breaking the
  eviction/admission protocol: request-path overrides that never reach
  ``_on_miss_observed`` (the exact shape of the mixture-policy
  regression), ``_select_victims`` overrides returning a bare victim or
  None instead of a plan list, request-path overrides silently
  inheriting a maybe-True ``supports_batched_scoring``, and ``_restore``
  overrides that drop the victim's true retrieval cost.
* ``xf-detector-purity`` — ``SloObjective.evaluate``, which judges every
  objective kind and folds the drift detectors' memory, must be
  replay-pure (fold the objective state, return the verdict, nothing
  else); transitive I/O, registry mutation, global writes, or
  nondeterminism make replayed verdicts diverge from live ones.
* ``xf-metric-surface`` — the generated reference table in
  ``docs/architecture.md`` must be what generating it from the registered
  metric surface yields now, and the Prometheus exposition names must not
  collide after sanitisation.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..base import Rule, Violation, dotted_name, references_name
from ..dataflow import EffectIndex
from ..metrics import (
    MARKER_END,
    MARKER_START,
    collect_metric_surface,
    render_metrics_markdown,
    splice_doc_table,
)
from .determinism import DETERMINISTIC_SCOPES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..project import ProjectModel

__all__ = [
    "DetectorPurityRule",
    "MetricSurfaceRule",
    "PolicyContractRule",
    "RngTaintRule",
]

#: Effect kinds that poison reproducibility when reached from a
#: deterministic scope.
_TAINT_KINDS = frozenset({"wallclock", "rng"})

#: Effect kinds an objective evaluation may not reach (folds on the
#: passed-in objective state are invisible to the summaries by
#: construction, which is exactly the allowed remainder).
_IMPURE_KINDS = frozenset({"io", "registry", "global", "wallclock", "rng"})

#: CachePolicy methods on the per-request path whose overrides must keep
#: the miss-observation hook reachable.
_REQUEST_METHODS = ("on_request", "apply_scored")


def _module_in(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


def _own_body(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/lambdas."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


class RngTaintRule(Rule):
    rule_id = "xf-rng-taint"
    summary = (
        "Deterministic-scope code reaches wall-clock or process-global "
        "RNG through a cross-module call"
    )

    def check(self, model: "ProjectModel") -> list[Violation]:
        index = EffectIndex(model)
        out: list[Violation] = []
        for info in model.functions_in(*DETERMINISTIC_SCOPES):
            for site in model.calls.get(info.qualname, []):
                callee = site.callee
                if callee is None:
                    continue
                target = model.functions.get(callee)
                if target is None or _module_in(
                    target.module, DETERMINISTIC_SCOPES
                ):
                    # In-scope callees are the det-* rules' territory
                    # (and recursion reports at *their* boundary sites).
                    continue
                for chain in index.reachable(callee, _TAINT_KINDS):
                    effect = chain.effect
                    out.append(
                        self.report_at(
                            path=info.path,
                            line=site.lineno,
                            col=site.col,
                            message=(
                                f"`{info.qualname}` is in a deterministic "
                                f"scope but this call reaches "
                                f"{effect.detail} at "
                                f"{effect.path}:{effect.line} "
                                f"(via {chain.render_chain()}); thread a "
                                f"seeded Generator / injected clock "
                                f"through instead"
                            ),
                        )
                    )
        return out


class PolicyContractRule(Rule):
    rule_id = "xf-policy-contract"
    summary = (
        "CachePolicy subclass breaks the eviction/admission protocol "
        "(miss hook, victim-plan shape, batched-scoring flag, or "
        "cost-true restore)"
    )

    def check(self, model: "ProjectModel") -> list[Violation]:
        out: list[Violation] = []
        for cls in model.subclasses_of("CachePolicy"):
            out.extend(self._check_miss_hook(model, cls))
            out.extend(self._check_plan_shape(cls))
            out.extend(self._check_batched_flag(model, cls))
            out.extend(self._check_restore_cost(cls))
        return out

    # -- miss-observation hook ----------------------------------------------

    def _check_miss_hook(self, model, cls) -> list[Violation]:
        out = []
        for name in _REQUEST_METHODS:
            method = cls.methods.get(name)
            if method is None:
                continue
            if not self._reaches_hook(model, method.qualname):
                out.append(
                    self.report_at(
                        path=method.path,
                        line=method.lineno,
                        col=method.node.col_offset + 1,
                        message=(
                            f"`{cls.name}.{name}` overrides the request "
                            f"path but never reaches "
                            f"`self._on_miss_observed(...)` (directly or "
                            f"via `super().{name}(...)`); misses handled "
                            f"here are invisible to admission training "
                            f"and the drift detectors"
                        ),
                    )
                )
        return out

    def _reaches_hook(self, model, start: str) -> bool:
        seen: set[str] = set()
        stack = [start]
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            for site in model.calls.get(qualname, []):
                if site.attr == "_on_miss_observed":
                    return True
                if site.raw.startswith("super().") and site.attr in (
                    _REQUEST_METHODS
                ):
                    if site.callee is None:
                        # Base outside the model: delegation is assumed
                        # conformant (the base owns the hook).
                        return True
                    stack.append(site.callee)
                elif site.callee is not None:
                    stack.append(site.callee)
        return False

    # -- victim-plan shape ---------------------------------------------------

    def _check_plan_shape(self, cls) -> list[Violation]:
        method = cls.methods.get("_select_victims")
        if method is None:
            return []
        out = []

        def flag(node: ast.AST, why: str) -> None:
            out.append(
                self.report_at(
                    path=method.path,
                    line=getattr(node, "lineno", method.lineno),
                    col=getattr(node, "col_offset", 0) + 1,
                    message=(
                        f"`{cls.name}._select_victims` {why}; the "
                        f"eviction loop consumes a (possibly empty) "
                        f"victim-plan *list* and treats anything else "
                        f"as no progress"
                    ),
                )
            )

        for node in _own_body(method.node):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                flag(node, "is a generator")
            elif isinstance(node, ast.Return):
                value = node.value
                if value is None or (
                    isinstance(value, ast.Constant) and value.value is None
                ):
                    flag(node, "returns None")
                elif (
                    isinstance(value, ast.Call)
                    and dotted_name(value.func).rsplit(".", 1)[-1]
                    == "_select_victim"
                ):
                    flag(
                        node,
                        "returns a single `_select_victim(...)` result "
                        "unwrapped",
                    )
        return out

    # -- batched-scoring flag ------------------------------------------------

    def _check_batched_flag(self, model, cls) -> list[Violation]:
        overrides_request = any(
            name in cls.methods for name in _REQUEST_METHODS
        )
        if not overrides_request or "supports_batched_scoring" in cls.methods:
            return []
        inherited = model.resolve_method(
            cls.qualname, "supports_batched_scoring", skip_self=True
        )
        if inherited is None or not _may_return_true(inherited.node):
            return []
        return [
            self.report_at(
                path=cls.path,
                line=cls.node.lineno,
                col=cls.node.col_offset + 1,
                message=(
                    f"`{cls.name}` overrides the per-request path but "
                    f"inherits `supports_batched_scoring` from "
                    f"`{inherited.cls or inherited.module}`, which can "
                    f"return True — the batched simulator would bypass "
                    f"this class's request logic; override the property "
                    f"explicitly"
                ),
            )
        ]

    # -- cost-true restore ---------------------------------------------------

    def _check_restore_cost(self, cls) -> list[Violation]:
        method = cls.methods.get("_restore")
        if method is None:
            return []
        args = method.node.args
        names = [a.arg for a in args.posonlyargs]
        names += [a.arg for a in args.args]
        names += [a.arg for a in args.kwonlyargs]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        if "cost" not in names:
            why = "does not accept a `cost` parameter"
        elif not references_name(method.node, "cost"):
            why = "accepts `cost` but never uses it"
        else:
            return []
        return [
            self.report_at(
                path=method.path,
                line=method.lineno,
                col=method.node.col_offset + 1,
                message=(
                    f"`{cls.name}._restore` {why}; restored victims "
                    f"must be reinstated with their true retrieval "
                    f"cost or rollback silently cheapens them"
                ),
            )
        ]


def _may_return_true(node: ast.AST) -> bool:
    """Whether any return of ``node`` could be truthy (not `return False`)."""
    for child in _own_body(node):
        if isinstance(child, ast.Return) and child.value is not None:
            value = child.value
            if not (
                isinstance(value, ast.Constant) and value.value is False
            ):
                return True
    return False


class DetectorPurityRule(Rule):
    rule_id = "xf-detector-purity"
    summary = (
        "SLO objective evaluation has externally visible side effects "
        "(must stay replay-pure)"
    )

    def check(self, model: "ProjectModel") -> list[Violation]:
        index = EffectIndex(model)
        out: list[Violation] = []
        for qualname in sorted(model.classes):
            cls = model.classes[qualname]
            method = cls.methods.get("evaluate")
            if method is None or not (
                cls.name == "SloObjective"
                or model.is_subclass_of(qualname, "SloObjective")
            ):
                continue
            for chain in index.reachable(method.qualname, _IMPURE_KINDS):
                effect = chain.effect
                out.append(
                    self.report_at(
                        path=method.path,
                        line=method.lineno,
                        col=method.node.col_offset + 1,
                        message=(
                            f"`{cls.name}.evaluate` must be replay-pure "
                            f"(fold the objective state, return the "
                            f"verdict) but reaches {effect.detail} at "
                            f"{effect.path}:{effect.line} "
                            f"(via {chain.render_chain()}); publish "
                            f"through the engine's `_publish` path "
                            f"instead"
                        ),
                    )
                )
        return out


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

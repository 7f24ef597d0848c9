"""Robustness rules.

Production caches fail quietly: a swallowed exception drops retraining on
the floor, a float equality in a split comparison flips with the
optimisation level.  Each rule here turns one of those silent failure
modes into a build error.
"""

from __future__ import annotations

import ast

from typing import Iterable, Iterator

from ..base import FileContext, Rule, dotted_name

__all__ = [
    "BroadExceptRule",
    "FloatEqualityRule",
    "SilentDegradeRule",
]

_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)

#: Modules where float split/cost comparisons live.
_FLOAT_EQ_SCOPES = ("repro.gbdt", "repro.flow")

#: Packages whose failure handling must be observable (the request path,
#: labeling, and trace I/O — exactly where silent degradation hides).
_DEGRADE_SCOPES = ("repro.core", "repro.opt", "repro.trace")

#: Identifier fragments that mark a degradation flag or mode switch.
_DEGRADE_FRAGMENTS = ("degraded", "fallback", "tolerant", "halted", "broken")

#: Metric-bump method names (counter.inc, histogram.observe, tracer.event).
_METRIC_METHODS = frozenset({"inc", "observe", "event"})


class BroadExceptRule(Rule):
    """Broad exception handlers must log and count, or re-raise."""

    rule_id = "rob-broad-except"
    summary = (
        "a bare/`except Exception` handler that neither re-raises nor both "
        "logs the failure and increments a metrics counter swallows faults "
        "invisibly; narrow the type, or log + count what you catch"
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._is_broad(node.type) and not self._handled_loudly(node):
            caught = (
                dotted_name(node.type) if node.type is not None else "all"
            )
            self.report(
                node,
                f"broad handler (catches {caught}) must re-raise or both "
                "log the exception and increment a metrics counter",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_broad(type_node: ast.AST | None) -> bool:
        if type_node is None:
            return True
        names = (
            [dotted_name(e) for e in type_node.elts]
            if isinstance(type_node, ast.Tuple)
            else [dotted_name(type_node)]
        )
        return any(n in ("Exception", "BaseException") for n in names)

    @staticmethod
    def _handled_loudly(handler: ast.ExceptHandler) -> bool:
        logs = counts = reraises = False
        for child in ast.walk(handler):
            if isinstance(child, ast.Raise):
                reraises = True
            elif isinstance(child, ast.Call) and isinstance(
                child.func, ast.Attribute
            ):
                receiver = dotted_name(child.func.value).lower()
                if child.func.attr in _LOG_METHODS and "log" in receiver:
                    logs = True
                if child.func.attr == "inc":
                    counts = True
        return reraises or (logs and counts)


def _shallow_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s subtree without descending into nested function,
    class, or lambda bodies (those are separate observability scopes)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            stack.extend(ast.iter_child_nodes(child))


def _is_loud_call(call: ast.Call) -> bool:
    """A call that makes a degradation path observable: logging, a
    warnings.warn, or a metric bump (inc/observe/event, gauge .set)."""
    if isinstance(call.func, ast.Name):
        return call.func.id == "warn"
    if not isinstance(call.func, ast.Attribute):
        return False
    attr = call.func.attr
    receiver = dotted_name(call.func.value).lower()
    if attr == "warn" and "warnings" in receiver:
        return True
    if attr in _LOG_METHODS and "log" in receiver:
        return True
    if attr in _METRIC_METHODS:
        return True
    if attr == "set" and isinstance(call.func.value, ast.Call):
        # registry.gauge("name").set(...) — the only .set that counts.
        factory = dotted_name(call.func.value.func).rsplit(".", 1)[-1]
        return factory == "gauge"
    return False


def _is_loud(nodes: Iterable[ast.AST]) -> bool:
    """True when the statements re-raise, log, warn, or bump a metric."""
    for stmt in nodes:
        for child in [stmt, *_shallow_walk(stmt)]:
            if isinstance(child, ast.Raise):
                return True
            if isinstance(child, ast.Call) and _is_loud_call(child):
                return True
    return False


class FloatEqualityRule(Rule):
    """No float-literal equality in split/cost comparisons."""

    rule_id = "rob-float-eq"
    summary = (
        "== / != against a float literal in gbdt/flow split or cost "
        "comparisons flips with rounding; compare with a tolerance or "
        "restructure around an integer/None sentinel"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package(*_FLOAT_EQ_SCOPES)

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Constant)
                and isinstance(o.value, float)
                # Infinities are exact sentinels, not rounding hazards.
                and o.value == o.value  # not NaN
                and abs(o.value) != float("inf")
                for o in operands
            ):
                self.report(
                    node,
                    "float literal equality comparison; use a tolerance "
                    "(abs(a - b) < eps) or an exact sentinel",
                )
        self.generic_visit(node)


class SilentDegradeRule(Rule):
    """Degradation paths in core/opt/trace must log or bump a metric.

    Three shapes of silent degradation are rejected:

    1. *any* exception handler (not just broad ones) that neither
       re-raises nor logs/warns/bumps a metric — a quiet ``except`` is a
       fallback nobody will ever see engage;
    2. an ``if`` branch gated on a bare degradation-mode name (one
       containing ``degraded``/``fallback``/``tolerant``/...) with no
       raise/log/metric in its body — mode switches must be observable
       where they take effect (attribute tests like ``self._degraded``
       are exempt: they guard the per-request hot path, which is counted
       once at the flip site instead);
    3. setting a degradation flag (``pool_broken = True``,
       ``self._degraded = True``) inside a function that never logs or
       bumps a metric — the flip itself is the incident signal.
    """

    rule_id = "rob-silent-degrade"
    summary = (
        "except-driven or flag-driven fallback paths in repro.core/opt/"
        "trace must be observable: re-raise, log/warn, or bump a metric "
        "where the degradation engages"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package(*_DEGRADE_SCOPES)

    # -- shape 1: quiet except handlers --------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if not _is_loud(node.body):
            caught = (
                dotted_name(node.type) if node.type is not None else "all"
            )
            self.report(
                node,
                f"exception handler (catches {caught}) degrades silently; "
                "re-raise, log, or bump a resilience metric in the handler",
            )
        self.generic_visit(node)

    # -- shape 2: quiet degradation-mode branches ----------------------------

    def visit_If(self, node: ast.If) -> None:
        name = self._degrade_name(node.test)
        if name is not None and not _is_loud(node.body):
            self.report(
                node,
                f"branch on degradation mode `{name}` has no raise/log/"
                "metric; count or log the fallback where it engages",
            )
        self.generic_visit(node)

    @staticmethod
    def _degrade_name(test: ast.AST) -> str | None:
        """The first bare degradation-flag Name loaded by ``test``, if any.

        Flags are snake_case variables (``tolerant``, ``pool_broken``);
        CamelCase names are classes (``BrokenExecutor``), not flags.
        """
        for child in ast.walk(test):
            if (
                isinstance(child, ast.Name)
                and child.id == child.id.lower()
                and any(f in child.id for f in _DEGRADE_FRAGMENTS)
            ):
                return child.id
        return None

    # -- shape 3: quiet flag flips -------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        loud = _is_loud(node.body)
        for child in _shallow_walk(node):
            if (
                isinstance(child, ast.Assign)
                and isinstance(child.value, ast.Constant)
                and child.value.value is True
            ):
                for target in child.targets:
                    flag = self._flag_name(target)
                    if flag is not None and not loud:
                        self.report(
                            child,
                            f"`{flag} = True` flips a degradation flag in "
                            f"`{node.name}()`, which never logs or bumps a "
                            "metric; make the flip observable",
                        )
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    @staticmethod
    def _flag_name(target: ast.AST) -> str | None:
        terminal = (
            target.attr
            if isinstance(target, ast.Attribute)
            else target.id
            if isinstance(target, ast.Name)
            else ""
        )
        if any(f in terminal.lower() for f in _DEGRADE_FRAGMENTS):
            return terminal
        return None

"""Core types of the static-analysis framework: violations, file context,
and the :class:`Rule` plugin API.

A rule is an :class:`ast.NodeVisitor` subclass with a stable ``rule_id``.
The engine instantiates each selected rule once per run and calls
:meth:`Rule.check` with the whole-program model.  The default walks every
in-scope file's AST (a visitor rule only overrides ``visit_*``); a
whole-program rule overrides :meth:`Rule.check` and reads the model's
symbol table, call graph or metric surface instead.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .project import ProjectModel

__all__ = ["FileContext", "Rule", "Violation"]

#: ``# lint: ignore[rule-a, rule-b]`` — file-wide suppression marker.
SUPPRESSION_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Za-z0-9_,\s-]+)\]")

#: ``# lint: ignore-next-line[rule-a, rule-b]`` — suppresses the listed
#: rules on the line directly below the marker only.
NEXT_LINE_RE = re.compile(
    r"#\s*lint:\s*ignore-next-line\[([A-Za-z0-9_,\s-]+)\]"
)


@dataclass(frozen=True)
class Violation:
    """One finding: where it is, which invariant it breaks, and why."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def as_dict(self) -> dict[str, str | int]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule_id}] {self.message}"


@dataclass
class FileContext:
    """One parsed source file as rules see it.

    ``module`` is the dotted module name derived from the path
    (``src/repro/sim/runner.py`` -> ``repro.sim.runner``;
    ``benchmarks/common.py`` -> ``benchmarks.common``), which is what rule
    scoping matches against.
    """

    path: str
    module: str
    source: str
    tree: ast.Module
    suppressed: frozenset[str] = field(default_factory=frozenset)
    #: Line-scoped suppressions: line number -> rule ids silenced there
    #: (populated from ``# lint: ignore-next-line[...]`` markers).
    line_suppressed: dict[int, frozenset[str]] = field(default_factory=dict)
    #: Whether this file is a package ``__init__`` (drives relative-import
    #: resolution in the whole-program model).
    is_package: bool = False

    @classmethod
    def from_source(
        cls, source: str, *, path: str = "<string>", module: str = "module"
    ) -> FileContext:
        """Parse ``source`` into a context (also the test-fixture entry point)."""
        return cls(
            path=path,
            module=module,
            source=source,
            tree=ast.parse(source, filename=path),
            suppressed=parse_suppressions(source),
            line_suppressed=parse_line_suppressions(source),
            is_package=path.endswith("__init__.py"),
        )

    def in_package(self, *prefixes: str) -> bool:
        """True when :attr:`module` is any of ``prefixes`` or inside one."""
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )

    def suppressed_at(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is silenced at ``line`` (file- or line-wide)."""
        return rule_id in self.suppressed or rule_id in self.line_suppressed.get(
            line, frozenset()
        )


def parse_suppressions(source: str) -> frozenset[str]:
    """Rule ids suppressed file-wide via ``# lint: ignore[rule-id, ...]``."""
    ids: set[str] = set()
    for match in SUPPRESSION_RE.finditer(source):
        ids.update(part.strip() for part in match.group(1).split(",") if part.strip())
    return frozenset(ids)


def parse_line_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Per-line suppressions: ``# lint: ignore-next-line[rule-id, ...]``.

    The marker silences the listed rules on the *next* line only, so a
    justified one-line exception does not blank the rule for the whole
    file.  Returns a map of suppressed line number -> rule ids.
    """
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in NEXT_LINE_RE.finditer(line):
            ids = {
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            }
            out.setdefault(lineno + 1, set()).update(ids)
    return {line: frozenset(ids) for line, ids in out.items()}


class Rule(ast.NodeVisitor):
    """Base class for all analysis rules.

    Subclasses set ``rule_id`` (stable, kebab-case, what ``--select`` and
    suppressions match) and ``summary`` (one line for reports).  A visitor
    rule overrides ``visit_*`` methods, calls :meth:`report` on findings
    and may override :meth:`applies_to` to scope itself to particular
    modules.  A whole-program rule overrides :meth:`check` and builds its
    findings with :meth:`report_at`; they still anchor to a concrete
    ``path:line`` so suppression markers apply to both kinds alike.
    """

    rule_id: str = ""
    summary: str = ""

    def __init__(self) -> None:
        self._violations: list[Violation] = []
        self._ctx: FileContext | None = None

    # -- engine entry point --------------------------------------------------

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule inspects ``ctx`` at all (default: every file)."""
        return True

    def check(self, model: "ProjectModel") -> list[Violation]:
        """All findings over ``model`` (default: visit each in-scope AST)."""
        self._violations = []
        try:
            for ctx in model.contexts.values():
                if self.applies_to(ctx):
                    self._ctx = ctx
                    self.visit(ctx.tree)
        finally:
            self._ctx = None
        return self._violations

    # -- helpers for subclasses ----------------------------------------------

    @property
    def ctx(self) -> FileContext:
        assert self._ctx is not None, "report() outside check()"
        return self._ctx

    def report(self, node: ast.AST, message: str) -> None:
        """Record a violation anchored at ``node`` in the current file."""
        self._violations.append(
            self.report_at(
                path=self.ctx.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    def report_at(
        self, *, path: str, line: int, col: int, message: str
    ) -> Violation:
        """Construct (without recording) a violation at an explicit site."""
        return Violation(
            rule_id=self.rule_id,
            path=path,
            line=line,
            col=col,
            message=message,
        )


def dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute/name chains; '' for anything dynamic."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def references_name(node: ast.AST, name: str) -> bool:
    """True when any ``Name`` node inside ``node`` loads ``name``."""
    return any(
        isinstance(child, ast.Name) and child.id == name
        for child in ast.walk(node)
    )

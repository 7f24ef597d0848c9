"""The whole-program model behind ``lfo lint``.

Per-file AST visitors cannot see cross-module contract breaks — the class of
defect every recent regression fell into (a ``CachePolicy`` subclass
skipping the ``_on_miss_observed`` hook, a ``_restore`` dropping the
victim's true cost).  :class:`ProjectModel` gives rules the repo-wide
view those checks need:

* a **symbol table** — every module-level function, class and method with
  its qualified name (``repro.cache.base.CachePolicy.on_request``);
* an **import graph** — per module, the alias table mapping every bound
  name to the fully qualified symbol it refers to, with relative imports
  and package re-exports (``from .base import CachePolicy`` in an
  ``__init__``) resolved;
* a **class hierarchy** — resolved base classes, transitive subclass
  queries, and an approximate MRO for method resolution;
* a **call graph** — per function, the call sites with their callees
  resolved through imports, ``self.``/``super().`` dispatch and
  re-exports (dynamic calls stay unresolved and carry their trailing
  attribute name for conservative matching).

:meth:`ProjectModel.build` always parses the default roots (``src``,
``benchmarks``, ``examples``) — the program is the whole tree whatever
subset of it a run reports on, because a whole-program rule over part of
a program reports what the missing part would have explained.
:meth:`ProjectModel.from_sources` builds a model from an in-memory
``{module: source}`` mapping, which is how rule fixtures are tested
without touching disk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .base import FileContext, Violation, dotted_name

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ProjectModel",
    "iter_python_files",
]

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {".git", "__pycache__", ".venv", "venv", "build", "dist", ".mypy_cache",
     ".ruff_cache", ".pytest_cache", "node_modules"}
)

#: The roots every model is built over, relative to the run's root.
DEFAULT_ROOTS = ("src", "benchmarks", "examples")

#: Re-export chasing depth bound (a.b re-exporting c.d re-exporting ...).
_CHASE_LIMIT = 10


@dataclass
class FunctionInfo:
    """One module-level function or method."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    cls: str | None = None  # enclosing class qualname, None for functions
    is_property: bool = False

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition with raw (as-written) base expressions."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class CallSite:
    """One call expression inside a function body.

    ``callee`` is the resolved function/method qualname when static
    resolution succeeded, else None; ``raw`` is the dotted text as
    written ('' for dynamic receivers) and ``attr`` the trailing
    attribute name, kept for conservative name-based matching.
    """

    raw: str
    callee: str | None
    attr: str | None
    lineno: int
    col: int


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through directly)."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    yield candidate


def module_name_for(path: Path, root: Path | None = None) -> str:
    """Dotted module name for ``path`` (``src/`` layout aware)."""
    resolved = path.resolve()
    base = (root or Path.cwd()).resolve()
    try:
        relative = resolved.relative_to(base)
    except ValueError:
        relative = Path(resolved.name)
    parts = list(relative.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or resolved.stem


def display_path(path: Path, base: Path) -> str:
    """``path`` relative to ``base`` when inside it (what findings print)."""
    try:
        return str(path.resolve().relative_to(base.resolve()))
    except ValueError:
        return str(path)


def _is_property(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = dotted_name(decorator)
        if name == "property" or name.endswith(".setter"):
            return True
    return False


class ProjectModel:
    """Repo-wide symbol table, import graph, class hierarchy, call graph."""

    def __init__(self, root: Path | None = None) -> None:
        self.root = root
        self.contexts: dict[str, FileContext] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: module -> bound name -> fully qualified target (pre-chase).
        self.imports: dict[str, dict[str, str]] = {}
        #: function qualname -> call sites in its body.
        self.calls: dict[str, list[CallSite]] = {}
        self.parse_errors: list[Violation] = []
        #: In-memory docs overlay (fixtures); real trees read from disk.
        self._docs: dict[str, str] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        paths: Sequence[str | Path] | None = None,
        *,
        root: str | Path | None = None,
    ) -> "ProjectModel":
        """Parse the default roots under ``root`` (default: cwd) into a model.

        ``paths`` only *adds* files the roots do not already hold (a file
        linted from outside the tree); it never makes the program smaller.
        """
        base = Path(root) if root is not None else Path.cwd()
        model = cls(root=base)
        roots = [base / name for name in DEFAULT_ROOTS if (base / name).is_dir()]
        files = {  # a path inside a root names files the roots already hold
            path.resolve(): path
            for path in iter_python_files([*roots, *(paths or ())])
        }
        for path in files.values():
            source = path.read_text(encoding="utf-8")
            display = display_path(path, base)
            try:
                ctx = FileContext.from_source(
                    source, path=display, module=module_name_for(path, base)
                )
            except SyntaxError as exc:
                model.parse_errors.append(
                    Violation(
                        rule_id="parse-error",
                        path=display,
                        line=exc.lineno or 0,
                        col=(exc.offset or 0),
                        message=f"could not parse file: {exc.msg}",
                    )
                )
                continue
            model._add_context(ctx)
        model._link()
        return model

    @classmethod
    def from_sources(
        cls,
        sources: Mapping[str, str],
        *,
        docs: Mapping[str, str] | None = None,
    ) -> "ProjectModel":
        """Build a model from ``{module: source}`` (the fixture entry point).

        ``docs`` maps doc-relative paths (``docs/architecture.md``) to
        their text for rules that reconcile code against documentation.
        """
        model = cls(root=None)
        for module, source in sources.items():
            path = module.replace(".", "/") + ".py"
            ctx = FileContext.from_source(source, path=path, module=module)
            model._add_context(ctx)
        if docs:
            model._docs = dict(docs)
        model._link()
        return model

    # -- docs access ---------------------------------------------------------

    def read_text(self, relpath: str) -> str | None:
        """Text of a repo-relative non-Python artifact (docs), or None."""
        if relpath in self._docs:
            return self._docs[relpath]
        if self.root is None:
            return None
        candidate = self.root / relpath
        if candidate.is_file():
            return candidate.read_text(encoding="utf-8")
        return None

    # -- indexing ------------------------------------------------------------

    def _add_context(self, ctx: FileContext) -> None:
        self.contexts[ctx.module] = ctx
        self.imports[ctx.module] = _import_aliases(ctx)
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{ctx.module}.{node.name}",
                    module=ctx.module,
                    name=node.name,
                    node=node,
                    path=ctx.path,
                    is_property=_is_property(node),
                )
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                cls_info = ClassInfo(
                    qualname=f"{ctx.module}.{node.name}",
                    module=ctx.module,
                    name=node.name,
                    node=node,
                    path=ctx.path,
                    bases=[
                        dotted_name(b) for b in node.bases if dotted_name(b)
                    ],
                )
                for child in node.body:
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        method = FunctionInfo(
                            qualname=f"{cls_info.qualname}.{child.name}",
                            module=ctx.module,
                            name=child.name,
                            node=child,
                            path=ctx.path,
                            cls=cls_info.qualname,
                            is_property=_is_property(child),
                        )
                        cls_info.methods[child.name] = method
                        self.functions[method.qualname] = method
                self.classes[cls_info.qualname] = cls_info

    def _link(self) -> None:
        """Second pass: extract and resolve every function's call sites."""
        for info in list(self.functions.values()):
            self.calls[info.qualname] = self._extract_calls(info)

    # -- symbol resolution ---------------------------------------------------

    def resolve_symbol(self, module: str, dotted: str) -> str | None:
        """Resolve a dotted name as used in ``module`` to a qualname."""
        if not dotted:
            return None
        parts = dotted.split(".")
        aliases = self.imports.get(module, {})
        target = aliases.get(parts[0])
        if target is None:
            local = f"{module}.{dotted}"
            chased = self._chase(local)
            if chased is not None:
                return chased
            return None
        return self._chase(".".join([target] + parts[1:]))

    def _chase(self, full: str) -> str | None:
        """Follow re-export chains until a defined symbol (or give up)."""
        for _ in range(_CHASE_LIMIT):
            if full in self.functions or full in self.classes:
                return full
            parts = full.split(".")
            hopped = False
            for i in range(len(parts) - 1, 0, -1):
                module = ".".join(parts[:i])
                if module not in self.contexts:
                    continue
                target = self.imports.get(module, {}).get(parts[i])
                if target is not None:
                    full = ".".join([target] + parts[i + 1 :])
                    hopped = True
                break
            if not hopped:
                return None
        return None

    # -- class hierarchy -----------------------------------------------------

    def resolved_bases(self, qualname: str) -> list[str]:
        """Base-class qualnames of ``qualname`` that resolve in-project."""
        info = self.classes.get(qualname)
        if info is None:
            return []
        out = []
        for base in info.bases:
            resolved = self.resolve_symbol(info.module, base)
            if resolved is not None and resolved in self.classes:
                out.append(resolved)
        return out

    def mro(self, qualname: str) -> list[str]:
        """Approximate linearisation: the class, then bases depth-first."""
        order: list[str] = []
        seen: set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            order.append(name)
            for base in self.resolved_bases(name):
                visit(base)

        visit(qualname)
        return order

    def is_subclass_of(self, qualname: str, ancestor_suffix: str) -> bool:
        """Whether any class in the MRO (or an unresolved written base)
        matches ``ancestor_suffix`` — a qualname, or a bare class name
        matched on the final component (fixture-friendly)."""
        for name in self.mro(qualname):
            if name == ancestor_suffix or name.endswith(
                "." + ancestor_suffix
            ):
                return True
            info = self.classes.get(name)
            if info is None:
                continue
            for base in info.bases:
                tail = base.rsplit(".", 1)[-1]
                if base == ancestor_suffix or tail == ancestor_suffix:
                    return True
        return False

    def subclasses_of(self, ancestor_suffix: str) -> list[ClassInfo]:
        """Every project class below ``ancestor_suffix`` (excluded itself)."""
        out = []
        for qualname, info in self.classes.items():
            if qualname == ancestor_suffix or qualname.endswith(
                "." + ancestor_suffix
            ):
                continue
            if self.is_subclass_of(qualname, ancestor_suffix):
                out.append(info)
        return sorted(out, key=lambda c: c.qualname)

    def resolve_method(
        self, cls_qualname: str, method: str, *, skip_self: bool = False
    ) -> FunctionInfo | None:
        """Find ``method`` along the MRO (``skip_self`` models super())."""
        order = self.mro(cls_qualname)
        if skip_self:
            order = order[1:]
        for name in order:
            info = self.classes.get(name)
            if info is not None and method in info.methods:
                return info.methods[method]
        return None

    # -- call extraction -----------------------------------------------------

    def _extract_calls(self, info: FunctionInfo) -> list[CallSite]:
        sites: list[CallSite] = []
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            sites.append(self._resolve_call(info, node))
        return sites

    def _resolve_call(self, info: FunctionInfo, node: ast.Call) -> CallSite:
        raw = dotted_name(node.func)
        callee: str | None = None
        attr: str | None = None
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            # super().meth(...): dispatch past the defining class.
            inner = node.func.value
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == "super"
                and info.cls is not None
            ):
                resolved = self.resolve_method(
                    info.cls, node.func.attr, skip_self=True
                )
                if resolved is not None:
                    callee = resolved.qualname
                return CallSite(
                    raw=f"super().{node.func.attr}",
                    callee=callee,
                    attr=attr,
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                )
        if raw:
            parts = raw.split(".")
            if parts[0] == "self" and info.cls is not None:
                if len(parts) == 2:
                    resolved = self.resolve_method(info.cls, parts[1])
                    if resolved is not None:
                        callee = resolved.qualname
            else:
                symbol = self.resolve_symbol(info.module, raw)
                if symbol is not None:
                    if symbol in self.functions:
                        callee = symbol
                    elif symbol in self.classes:
                        # Constructor call: effects live in __init__.
                        ctor = self.resolve_method(symbol, "__init__")
                        callee = ctor.qualname if ctor is not None else None
            if attr is None and "." not in raw:
                attr = raw
        return CallSite(
            raw=raw,
            callee=callee,
            attr=attr,
            lineno=node.lineno,
            col=node.col_offset + 1,
        )

    # -- convenience ---------------------------------------------------------

    def functions_in(self, *prefixes: str) -> Iterable[FunctionInfo]:
        """Every function whose module is inside one of ``prefixes``."""
        for info in self.functions.values():
            module = info.module
            if any(
                module == p or module.startswith(p + ".") for p in prefixes
            ):
                yield info


def _import_aliases(ctx: FileContext) -> dict[str, str]:
    """Bound name -> fully qualified target for every import in ``ctx``."""
    aliases: dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = _from_import_base(ctx, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                aliases[alias.asname or alias.name] = target
    return aliases


def _from_import_base(
    ctx: FileContext, node: ast.ImportFrom
) -> str | None:
    """The absolute module a ``from ... import`` pulls names out of."""
    if node.level == 0:
        return node.module or None
    package_parts = ctx.module.split(".")
    if not ctx.is_package:
        package_parts = package_parts[:-1]
    cut = len(package_parts) - (node.level - 1)
    if cut < 0:
        return None
    parts = package_parts[:cut]
    if node.module:
        parts = parts + node.module.split(".")
    return ".".join(parts) if parts else None

"""The program model behind ``lfo lint``: every parsed file, plus docs.

:class:`ProjectModel` holds one :class:`FileContext` per parsed file and
reads the non-Python artifacts rules reconcile code against (the docs
metric table).  :meth:`ProjectModel.build` always parses the default
roots (``src``, ``benchmarks``, ``examples``) — the program is the whole
tree whatever subset of it a run reports on, because a repo-wide rule
(one metric name registered as two kinds in two files) over part of a
program reports what the missing part would have explained.
:meth:`ProjectModel.from_sources` builds a model from an in-memory
``{module: source}`` mapping, which is how rule fixtures are tested
without touching disk.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .base import FileContext, Violation

__all__ = ["ProjectModel", "iter_python_files"]

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {".git", "__pycache__", ".venv", "venv", "build", "dist", ".mypy_cache",
     ".ruff_cache", ".pytest_cache", "node_modules"}
)

#: The roots every model is built over, relative to the run's root.
DEFAULT_ROOTS = ("src", "benchmarks", "examples")


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


class ProjectModel:
    """Every parsed file of the program, keyed by module, plus its docs."""

    def __init__(self, root: Path | None = None) -> None:
        self.root = root
        self.contexts: dict[str, FileContext] = {}
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
            model.contexts[ctx.module] = ctx
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
            model.contexts[module] = ctx
        if docs:
            model._docs = dict(docs)
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

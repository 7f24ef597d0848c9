"""Intraprocedural effect summaries with call-graph propagation.

The ``xf-*`` rules need two whole-program facts that single-file visitors
cannot establish: *does this function (transitively) touch a
non-reproducible source* (wall clock, process-global RNG), and *is this
function free of externally visible side effects* (I/O, metrics-registry
mutation, module-global writes).  Both reduce to the same shape:

1. an **intraprocedural summary** — one AST walk per function recording
   its direct effects (:func:`function_effects`), classified by kind:

   ========== =====================================================
   kind       direct effect
   ========== =====================================================
   wallclock  ``time.time()``, ``datetime.now()``, ... reads
   rng        stdlib ``random``, legacy ``np.random`` singleton, or
              an unseeded ``default_rng()``
   io         ``open``/``print``/``input`` or file-write methods
   registry   metrics-registry instrument/span/event calls
   global     ``global``/``nonlocal`` declarations (writes by intent)
   ========== =====================================================

2. **propagation over the call graph** — :func:`reachable_effects`
   unions a function's own effects with those of every resolved callee,
   memoised, cycle-safe, with the call chain retained so a finding can
   say *how* the effect is reached.

Summaries are conservative in the lint direction: dynamic calls that
cannot be resolved contribute no transitive effects (the ``det-*``
visitor rules still cover direct uses), while the effect *sources*
themselves are matched syntactically and so cannot be hidden behind
aliasing tricks the visitor rules already reject (literal-name rules).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .base import dotted_name
from .metrics import FACTORY_ATTRS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .project import FunctionInfo, ProjectModel

__all__ = ["Effect", "EffectChain", "function_effects", "reachable_effects"]

#: Method names that write to a file-like receiver.
_IO_WRITE_ATTRS = frozenset(
    {"write", "writelines", "write_text", "write_bytes"}
)

#: Builtins that perform I/O outright.
_IO_CALLS = frozenset({"open", "print", "input"})


@dataclass(frozen=True)
class Effect:
    """One direct effect inside one function."""

    kind: str  # 'wallclock' | 'rng' | 'io' | 'registry' | 'global'
    detail: str
    qualname: str
    path: str
    line: int


@dataclass(frozen=True)
class EffectChain:
    """An effect plus the call chain that reaches it (origin last)."""

    effect: Effect
    chain: tuple[str, ...]

    def render_chain(self) -> str:
        return " -> ".join(self.chain)


def _receiver_text(node: ast.AST) -> str:
    return dotted_name(node).lower()


def function_effects(
    info: "FunctionInfo", model: "ProjectModel"
) -> list[Effect]:
    """Direct (non-transitive) effects of one function body.

    ``info`` is a :class:`repro.analysis.project.FunctionInfo`; ``model``
    supplies the module import table so from-imported wall-clock names
    (``from time import time``) are recognised.
    """
    # Imported lazily: the rules package imports this module (via
    # ``rules.crossfile``), so a top-level import here would be circular.
    from .rules.determinism import _SEEDABLE_ATTRS, _WALLCLOCK_CALLS

    effects: list[Effect] = []
    aliases = model.imports.get(info.module, {})
    wallclock_names = {
        bound
        for bound, target in aliases.items()
        if target in ("time.time", "time.time_ns")
    }
    default_rng_names = {"default_rng"} | {
        bound
        for bound, target in aliases.items()
        if target == "numpy.random.default_rng"
    }

    def add(kind: str, detail: str, node: ast.AST) -> None:
        effects.append(
            Effect(
                kind=kind,
                detail=detail,
                qualname=info.qualname,
                path=info.path,
                line=getattr(node, "lineno", info.lineno),
            )
        )

    for node in ast.walk(info.node):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            add(
                "global",
                f"declares {' '.join(node.names)} "
                f"{'global' if isinstance(node, ast.Global) else 'nonlocal'}",
                node,
            )
            continue
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        tail = name.rsplit(".", 1)[-1] if name else ""
        # Wall clock -------------------------------------------------------
        if name in _WALLCLOCK_CALLS or name in wallclock_names:
            add("wallclock", f"wall-clock read `{name}()`", node)
        # RNG --------------------------------------------------------------
        parts = name.split(".")
        if len(parts) >= 2 and parts[-2] == "random":
            if tail not in _SEEDABLE_ATTRS:
                add(
                    "rng",
                    f"process-global RNG draw `{name}()`",
                    node,
                )
        if tail in default_rng_names and _is_unseeded(node):
            add("rng", "unseeded `default_rng()`", node)
        # I/O --------------------------------------------------------------
        if name in _IO_CALLS:
            add("io", f"I/O call `{name}()`", node)
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _IO_WRITE_ATTRS
        ):
            add("io", f"file write `.{node.func.attr}()`", node)
        # Metrics registry --------------------------------------------------
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            receiver = _receiver_text(node.func.value)
            if attr in FACTORY_ATTRS and (
                "registry" in receiver or "tracer" in receiver
            ):
                add("registry", f"registry mutation `.{attr}(...)`", node)
        if tail == "get_registry":
            add("registry", "resolves the process metrics registry", node)
    return effects


def _is_unseeded(node: ast.Call) -> bool:
    if node.args:
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    return not any(kw.arg == "seed" for kw in node.keywords)


class EffectIndex:
    """Memoised own-effect and transitive-effect queries over a model."""

    def __init__(self, model: "ProjectModel") -> None:
        self.model = model
        self._own: dict[str, list[Effect]] = {}
        self._reach: dict[tuple[str, frozenset[str]], list[EffectChain]] = {}

    def own(self, qualname: str) -> list[Effect]:
        if qualname not in self._own:
            info = self.model.functions.get(qualname)
            self._own[qualname] = (
                function_effects(info, self.model) if info is not None else []
            )
        return self._own[qualname]

    def reachable(
        self, qualname: str, kinds: frozenset[str]
    ) -> list[EffectChain]:
        """Effects of ``kinds`` reachable from ``qualname`` (inclusive)."""
        key = (qualname, kinds)
        cached = self._reach.get(key)
        if cached is not None:
            return cached
        out, _complete = self._walk(qualname, kinds, stack=())
        self._reach[key] = out
        return out

    def _walk(
        self, qualname: str, kinds: frozenset[str], stack: tuple[str, ...]
    ) -> tuple[list[EffectChain], bool]:
        """DFS returning ``(chains, complete)``.

        ``complete`` is False when the walk was cut by a back-edge, in
        which case the result is not memoised — a recursion cycle's
        members otherwise cache a view missing effects that only surface
        once the whole cycle is explored.
        """
        if qualname in stack:
            return [], False
        key = (qualname, kinds)
        cached = self._reach.get(key)
        if cached is not None:
            return cached, True
        stack = stack + (qualname,)
        complete = True
        found: list[EffectChain] = [
            EffectChain(effect=e, chain=(qualname,))
            for e in self.own(qualname)
            if e.kind in kinds
        ]
        for site in self.model.calls.get(qualname, []):
            if site.callee is None or site.callee == qualname:
                continue
            sub, sub_complete = self._walk(site.callee, kinds, stack)
            complete = complete and sub_complete
            for chain in sub:
                found.append(
                    EffectChain(
                        effect=chain.effect,
                        chain=(qualname,) + chain.chain,
                    )
                )
        # Deduplicate by origin effect, keeping the shortest chain.
        best: dict[Effect, EffectChain] = {}
        for chain in found:
            existing = best.get(chain.effect)
            if existing is None or len(chain.chain) < len(existing.chain):
                best[chain.effect] = chain
        out = sorted(
            best.values(), key=lambda c: (c.effect.path, c.effect.line)
        )
        if complete:
            self._reach[key] = out
        return out, complete


def reachable_effects(
    model: "ProjectModel", qualname: str, kinds: frozenset[str]
) -> list[EffectChain]:
    """One-shot convenience wrapper over :class:`EffectIndex`."""
    return EffectIndex(model).reachable(qualname, kinds)

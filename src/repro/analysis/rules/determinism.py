"""Determinism rules.

The paper's robustness story rests on OPT labels and trained models being
reproducible: rerunning a window must yield bit-identical decisions.  Any
ambient randomness (process-global RNGs) or wall-clock reads inside the
labeling/training/simulation substrate silently breaks that, so those
modules may only use explicitly seeded ``np.random.Generator`` objects and
injected logical clocks.  Monotonic timers (``time.perf_counter``) are
fine: they feed observability, not decisions.
"""

from __future__ import annotations

import ast

from ..base import FileContext, Rule, dotted_name

__all__ = ["DeterminismRngRule", "DeterminismWallClockRule"]

#: Modules whose outputs must be reproducible run-to-run.  ``repro.core``
#: joined when sampled eviction landed: the eviction sampler's candidate
#: draws decide victim sequences, so its RNG must be a seeded Generator.
DETERMINISTIC_SCOPES = (
    "repro.sim",
    "repro.opt",
    "repro.gbdt",
    "repro.features",
    "repro.core",
    "repro.trace.synthetic",
    # Telemetry windows must replay bit-identically under seeded runs:
    # window edges are stamped by an injectable clock whose default is
    # the monotonic perf_counter, never the wall clock.
    "repro.obs",
    # The serving harness replays traces deterministically: arrival
    # processes draw from seeded generators, latency uses perf_counter.
    "repro.serve",
    # The cluster must route identically on every host and restart: ring
    # points and key mixing come from blake2b/splitmix64, slab tokens
    # from pid + counter, timings from perf_counter/process_time.
    "repro.cluster",
    "benchmarks",
)

#: ``np.random.<attr>`` accesses that do NOT touch the process-global
#: legacy RNG: constructors/types for explicitly seeded generators.
_SEEDABLE_ATTRS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)


class _ScopedRule(Rule):
    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package(*DETERMINISTIC_SCOPES)


class DeterminismRngRule(_ScopedRule):
    """No process-global RNG state in deterministic modules."""

    rule_id = "det-rng"
    summary = (
        "sim/opt/gbdt/features/core/obs/serve/cluster/trace.synthetic and "
        "benchmarks must draw randomness from an explicitly seeded "
        "np.random.Generator, never the stdlib `random` module, the "
        "np.random legacy singleton, or an unseeded default_rng()"
    )

    def __init__(self) -> None:
        super().__init__()
        self._default_rng_aliases: set[str] = set()

    def visit_Module(self, node: ast.Module) -> None:
        self._default_rng_aliases = {"default_rng"}  # aliases are per file
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(
                    node,
                    "stdlib `random` is process-global state; use a seeded "
                    "np.random.Generator threaded through the call",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self.report(
                node,
                "stdlib `random` is process-global state; use a seeded "
                "np.random.Generator threaded through the call",
            )
        if node.module in ("numpy.random", "np.random"):
            for alias in node.names:
                if alias.name == "default_rng":
                    self._default_rng_aliases.add(alias.asname or alias.name)
                elif alias.name not in _SEEDABLE_ATTRS:
                    self.report(
                        node,
                        f"`from numpy.random import {alias.name}` pulls in the "
                        "unseeded legacy RNG; import and seed default_rng "
                        "instead",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        tail = name.rsplit(".", 1)[-1] if name else ""
        # np.random.<dist>() on the legacy module-level singleton.
        if (".random." in name or name.startswith("random.")) and name.split(
            "."
        )[-2] == "random":
            if tail not in _SEEDABLE_ATTRS:
                self.report(
                    node,
                    f"`{name}()` uses the process-global legacy RNG; draw "
                    "from a seeded np.random.Generator instead",
                )
        if tail in self._default_rng_aliases and self._is_unseeded(node):
            self.report(
                node,
                "default_rng() without a seed is entropy-seeded and "
                "irreproducible; pass an explicit seed",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_unseeded(node: ast.Call) -> bool:
        if node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        return not any(kw.arg == "seed" for kw in node.keywords)


class DeterminismWallClockRule(_ScopedRule):
    """No wall-clock reads in deterministic modules."""

    rule_id = "det-wallclock"
    summary = (
        "sim/opt/gbdt/features/core/obs/serve/cluster/trace.synthetic and "
        "benchmarks must not read the wall clock (time.time, "
        "datetime.now, ...); use the trace's logical timestamps or an "
        "injected clock (monotonic perf_counter timing for observability "
        "is fine)"
    )

    def __init__(self) -> None:
        super().__init__()
        self._from_imports: set[str] = set()

    def visit_Module(self, node: ast.Module) -> None:
        self._from_imports = set()  # imports are per file
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in ("time", "time_ns"):
                    self._from_imports.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in _WALLCLOCK_CALLS or name in self._from_imports:
            self.report(
                node,
                f"wall-clock read `{name}()` makes reruns diverge; use the "
                "trace's logical time or an injected clock",
            )
        self.generic_visit(node)

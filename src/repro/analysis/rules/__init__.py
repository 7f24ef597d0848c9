"""The built-in rule suite.

Adding a rule is three steps: subclass :class:`repro.analysis.Rule` in
one of the modules here (or a new one), give it a stable ``rule_id``, and
list the class in :data:`ALL_RULES`.  Visitor rules override ``visit_*``;
whole-program rules override ``check(model)``.  Every rule runs on every
``lfo lint``.
"""

from __future__ import annotations

from ..base import Rule
from .api import PublicApiAnnotationRule
from .concurrency import ExecutorSharedStateRule, RequestPathLockRule
from .crossfile import (
    DetectorPurityRule,
    MetricSurfaceRule,
    PolicyContractRule,
    RngTaintRule,
)
from .determinism import DeterminismRngRule, DeterminismWallClockRule
from .obs import ObsLiteralNameRule, ObsNameStyleRule, ObsNameUniqueRule
from .robustness import BroadExceptRule, FloatEqualityRule, SilentDegradeRule

__all__ = ["ALL_RULES", "all_rules", "rule_ids"]

ALL_RULES: tuple[type[Rule], ...] = (
    DeterminismRngRule,
    DeterminismWallClockRule,
    ExecutorSharedStateRule,
    RequestPathLockRule,
    ObsLiteralNameRule,
    ObsNameStyleRule,
    ObsNameUniqueRule,
    BroadExceptRule,
    FloatEqualityRule,
    SilentDegradeRule,
    PublicApiAnnotationRule,
    RngTaintRule,
    PolicyContractRule,
    DetectorPurityRule,
    MetricSurfaceRule,
)


def all_rules(select: list[str] | None = None) -> list[Rule]:
    """Fresh instances of every rule, narrowed to ``select`` ids."""
    if select is None:
        return [cls() for cls in ALL_RULES]
    unknown = sorted(set(select) - set(rule_ids()))
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(rule_ids()))}"
        )
    return [cls() for cls in ALL_RULES if cls.rule_id in select]


def rule_ids() -> list[str]:
    """Stable ids of every built-in rule."""
    return [cls.rule_id for cls in ALL_RULES]

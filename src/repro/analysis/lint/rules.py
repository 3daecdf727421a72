"""The default rule set of ``repro lint``.

One place lists every shipped rule so the CLI, the importable API and the
docs agree on the catalog.  Rules are cheap, stateless-per-run objects;
``all_rules()`` returns fresh instances so concurrent runs never share
accumulator state.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.lint.engine import Rule
from repro.analysis.lint.rules_concurrency import LockScopeRule
from repro.analysis.lint.rules_determinism import (
    RngGlobalStateRule,
    SetIterationRule,
    WallClockRule,
)
from repro.analysis.lint.rules_registry import (
    MetricNameRule,
    SchemaVerbRule,
    SpecDriftRule,
)

_RULE_CLASSES = (
    RngGlobalStateRule,
    WallClockRule,
    SetIterationRule,
    LockScopeRule,
    SchemaVerbRule,
    SpecDriftRule,
    MetricNameRule,
)


def all_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Fresh instances of every shipped rule (optionally a subset)."""
    rules = [cls() for cls in _RULE_CLASSES]
    if only is None:
        return rules
    wanted = set(only)
    unknown = wanted - {rule.name for rule in rules}
    if unknown:
        raise ValueError(f"unknown rule name(s): {sorted(unknown)}")
    return [rule for rule in rules if rule.name in wanted]


def rule_names() -> List[str]:
    return [cls().name for cls in _RULE_CLASSES]

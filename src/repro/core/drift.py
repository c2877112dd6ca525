"""Month-over-month rule drift.

The paper retrains monthly (Section VI-D) but never quantifies how much
of the rule set survives from one month to the next.  Operationally this
matters: persistent rules ("Somoto Ltd. is a malware signer") are stable
intelligence an analyst can curate, while churn measures how fast the
ecosystem moves and how often retraining is actually needed.

Rules are compared by *logic* -- their (conditions, prediction) -- not by
training statistics, since coverage naturally changes month to month.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .rules import Rule, RuleSet


def _logic_key(rule: Rule) -> Tuple:
    """A rule's identity: its ordered-insensitive conditions + prediction."""
    conditions = frozenset(
        (condition.feature, str(condition.value))
        for condition in rule.conditions
    )
    return (conditions, rule.prediction)


@dataclasses.dataclass(frozen=True)
class DriftReport:
    """Rule-set drift between two consecutive training windows."""

    previous_rules: int
    current_rules: int
    persisted: int
    appeared: int
    disappeared: int

    @property
    def persistence_rate(self) -> float:
        """Fraction of the previous month's rules still learned now."""
        return self.persisted / self.previous_rules if self.previous_rules else 0.0

    @property
    def novelty_rate(self) -> float:
        """Fraction of the current month's rules that are new."""
        return self.appeared / self.current_rules if self.current_rules else 0.0


def rule_drift(previous: RuleSet, current: RuleSet) -> DriftReport:
    """Compare two rule sets by rule logic."""
    previous_keys = {_logic_key(rule) for rule in previous}
    current_keys = {_logic_key(rule) for rule in current}
    persisted = len(previous_keys & current_keys)
    return DriftReport(
        previous_rules=len(previous_keys),
        current_rules=len(current_keys),
        persisted=persisted,
        appeared=len(current_keys - previous_keys),
        disappeared=len(previous_keys - current_keys),
    )


def drift_series(rulesets: Sequence[RuleSet]) -> List[DriftReport]:
    """Drift between each consecutive pair of monthly rule sets."""
    return [
        rule_drift(rulesets[index], rulesets[index + 1])
        for index in range(len(rulesets) - 1)
    ]


def persistent_rules(rulesets: Sequence[RuleSet]) -> List[Rule]:
    """Rules (by logic) learned in *every* given month.

    These are the stable-intelligence candidates an analyst could promote
    to a curated rule file (see :mod:`repro.core.rule_text`).  The
    returned rules are the last month's instances (freshest statistics),
    by decreasing coverage; equal coverage falls back to the rendered
    text, so the order never depends on string hashing.
    """
    if not rulesets:
        return []
    common: FrozenSet = frozenset(
        _logic_key(rule) for rule in rulesets[0]
    )
    for ruleset in rulesets[1:]:
        common = common & frozenset(_logic_key(rule) for rule in ruleset)
    last: Dict[Tuple, Rule] = {
        _logic_key(rule): rule for rule in rulesets[-1]
    }
    return sorted(
        (last[key] for key in common),
        key=lambda rule: (-rule.coverage, rule.render()),
    )

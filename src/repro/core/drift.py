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
from collections import Counter, deque
from typing import Deque, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

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


@dataclasses.dataclass(frozen=True)
class DistributionShift:
    """One detected shift of the observed categorical distribution."""

    at_count: int
    distance: float
    reference: Dict[str, float]
    current: Dict[str, float]


class DistributionDriftDetector:
    """Sliding-window total-variation drift detector.

    Watches a stream of categorical values (ground-truth labels, signer
    names, feature values...) and fires when the distribution of the most
    recent ``window`` values diverges from a frozen reference
    distribution by more than ``threshold`` total variation distance.
    The reference is the stream's first full window; after every firing
    it rebases to the current window, so one ecosystem change yields one
    trigger instead of a trigger per event.

    The streaming service uses this to force rule retraining *between*
    scheduled retrain boundaries when the label mix shifts abruptly
    (e.g. a new PPI campaign), complementing the purely time-based
    cadence of :meth:`OnlineRuleClassifier._retrain_due`.
    """

    def __init__(self, window: int = 200, threshold: float = 0.25) -> None:
        if window < 2:
            raise ValueError("window must be at least 2")
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.window = window
        self.threshold = threshold
        self._recent: Deque[Hashable] = deque(maxlen=window)
        self._reference: Optional[Dict[Hashable, float]] = None
        self.observed = 0
        self.shifts: List[DistributionShift] = []

    @staticmethod
    def _distribution(values) -> Dict[Hashable, float]:
        counts = Counter(values)
        total = sum(counts.values())
        return {value: count / total for value, count in counts.items()}

    def distance(self) -> float:
        """Current TVD between the recent window and the reference."""
        if self._reference is None or not self._recent:
            return 0.0
        current = self._distribution(self._recent)
        keys = set(self._reference) | set(current)
        return 0.5 * sum(
            abs(current.get(key, 0.0) - self._reference.get(key, 0.0))
            for key in keys
        )

    def observe(self, value: Hashable) -> Optional[DistributionShift]:
        """Feed one value; returns a shift record when drift fires."""
        self.observed += 1
        self._recent.append(value)
        if len(self._recent) < self.window:
            return None
        if self._reference is None:
            self._reference = self._distribution(self._recent)
            return None
        distance = self.distance()
        if distance <= self.threshold:
            return None
        shift = DistributionShift(
            at_count=self.observed,
            distance=distance,
            reference={str(k): v for k, v in self._reference.items()},
            current={
                str(k): v
                for k, v in self._distribution(self._recent).items()
            },
        )
        self.shifts.append(shift)
        self._reference = self._distribution(self._recent)
        return shift


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

"""Operational (online) deployment of the rule-based classifier.

Section VI-D: "rules generated based on past events are used to classify
new, unknown events in the future".  :class:`OnlineRuleClassifier` wraps
that deployment loop:

* labeled observations stream in via :meth:`observe` (e.g. files whose
  VT verdicts have matured);
* the learner periodically retrains on a sliding window of recent
  observations (the paper's monthly ``T_tr``);
* :meth:`classify` applies the currently selected rules with conflict
  rejection, retraining first if the retrain interval has elapsed.

Timestamps use the same day-based clock as the telemetry layer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .classifier import Decision, RuleBasedClassifier
from .dataset import CLASSES, Instance, TABLE_XV_SCHEMA
from .part import PartLearner
from .rules import RuleSet


class OnlineRuleClassifier:
    """Sliding-window PART learning with periodic retraining."""

    def __init__(
        self,
        schema: Sequence[str] = TABLE_XV_SCHEMA,
        tau: float = 0.001,
        window_days: float = 30.0,
        retrain_interval_days: float = 30.0,
    ) -> None:
        if window_days <= 0 or retrain_interval_days <= 0:
            raise ValueError("window and retrain interval must be positive")
        self.schema = tuple(schema)
        self.tau = tau
        self.window_days = window_days
        self.retrain_interval_days = retrain_interval_days
        self._observations: List[Tuple[float, Instance]] = []
        self._classifier: Optional[RuleBasedClassifier] = None
        self._last_trained_at: Optional[float] = None
        self.retrain_count = 0

    # ------------------------------------------------------------------
    # Data intake
    # ------------------------------------------------------------------

    def observe(self, values: Sequence, label: str, timestamp: float) -> None:
        """Add one labeled observation (feature values + ground truth)."""
        if label not in CLASSES:
            raise ValueError(f"unknown class label {label!r}")
        if self._observations and timestamp < self._observations[-1][0]:
            raise ValueError(
                "observations must arrive in timestamp order "
                f"({timestamp} after {self._observations[-1][0]})"
            )
        self._observations.append(
            (timestamp, Instance(values=tuple(values), label=label))
        )

    @property
    def observation_count(self) -> int:
        """Number of labeled observations currently retained."""
        return len(self._observations)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def retrain(self, now: float) -> RuleSet:
        """Drop observations outside the window and relearn the rules.

        The window's instances are fitted in arrival order.
        """
        horizon = now - self.window_days
        self._observations = [
            entry for entry in self._observations if entry[0] >= horizon
        ]
        learner = PartLearner(self.schema)
        rules = learner.fit([instance for _, instance in self._observations])
        selected = rules.select(self.tau)
        self._classifier = RuleBasedClassifier(selected)
        self._last_trained_at = now
        self.retrain_count += 1
        return selected

    @property
    def current_rules(self) -> RuleSet:
        """The currently deployed (selected) rule set."""
        if self._classifier is None:
            return RuleSet([])
        return self._classifier.rules

    def _retrain_due(self, now: float) -> bool:
        if self._last_trained_at is None:
            return True
        return now - self._last_trained_at >= self.retrain_interval_days

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def classify(self, values: Sequence, now: float) -> Decision:
        """Classify one feature vector at time ``now``.

        Retrains first when the retrain interval has elapsed (or on the
        very first call).  With no observations at all, every decision is
        an unmatched ``None``.
        """
        if self._retrain_due(now):
            self.retrain(now)
        assert self._classifier is not None
        return self._classifier.classify(values)

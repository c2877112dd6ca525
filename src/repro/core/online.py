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

from .classifier import ConflictPolicy, Decision, RuleBasedClassifier
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
        policy: ConflictPolicy = ConflictPolicy.REJECT,
        min_coverage: int = 1,
    ) -> None:
        if window_days <= 0 or retrain_interval_days <= 0:
            raise ValueError("window and retrain interval must be positive")
        self.schema = tuple(schema)
        self.tau = tau
        self.window_days = window_days
        self.retrain_interval_days = retrain_interval_days
        self.policy = policy
        self.min_coverage = min_coverage
        self._observations: List[Tuple[float, Optional[str], Instance]] = []
        self._classifier: Optional[RuleBasedClassifier] = None
        self._last_trained_at: Optional[float] = None
        self.retrain_count = 0

    # ------------------------------------------------------------------
    # Data intake
    # ------------------------------------------------------------------

    def observe(
        self,
        values: Sequence,
        label: str,
        timestamp: float,
        sha1: Optional[str] = None,
    ) -> None:
        """Add one labeled observation (feature values + ground truth).

        ``sha1`` optionally names the file the observation came from.
        When given, retraining orders the window's instances by hash --
        the same canonical order :meth:`TrainingSet.from_labeled` uses --
        so a streamed replay reproduces batch
        :func:`~repro.core.evaluation.learn_rules` exactly (PART's
        separate-and-conquer loop is order-sensitive).  Without hashes,
        arrival order is kept.
        """
        if label not in CLASSES:
            raise ValueError(f"unknown class label {label!r}")
        if self._observations and timestamp < self._observations[-1][0]:
            raise ValueError(
                "observations must arrive in timestamp order "
                f"({timestamp} after {self._observations[-1][0]})"
            )
        self._observations.append(
            (timestamp, sha1, Instance(values=tuple(values), label=label))
        )

    @property
    def observation_count(self) -> int:
        """Number of labeled observations currently retained."""
        return len(self._observations)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def retrain(
        self, now: float, window_days: Optional[float] = None
    ) -> RuleSet:
        """Drop observations outside the window and relearn the rules.

        ``window_days`` overrides the configured window for this one
        retrain -- rolling *calendar-month* windows need it, since the
        telemetry months are 28-31 days long (:data:`MONTH_STARTS`), not
        a fixed 30.
        """
        window = self.window_days if window_days is None else window_days
        if window <= 0:
            raise ValueError("window must be positive")
        horizon = now - window
        self._observations = [
            entry for entry in self._observations if entry[0] >= horizon
        ]
        # Stable sort: sha1-keyed observations take TrainingSet's
        # canonical hash order; unkeyed ones (sha1=None -> "") keep
        # their arrival order.
        instances = [
            entry[2]
            for entry in sorted(
                self._observations, key=lambda entry: entry[1] or ""
            )
        ]
        learner = PartLearner(self.schema)
        rules = learner.fit(instances)
        selected = rules.select(self.tau, min_coverage=self.min_coverage)
        self._classifier = RuleBasedClassifier(selected, self.policy)
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

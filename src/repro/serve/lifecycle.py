"""Online rule lifecycle: labels, rolling retrains, drift triggers.

The batch pipeline learns rules once per month pair
(:func:`repro.core.evaluation.learn_rules` over ``T_tr``); a streaming
deployment instead feeds each newly seen file to an
:class:`~repro.core.online.OnlineRuleClassifier` as its ground truth
becomes available and retrains at every month boundary on exactly that
month's window, while a
:class:`~repro.core.drift.DistributionDriftDetector` records every
abrupt shift of the label mix.

Two labeling modes:

``matured`` (default)
    Every hash is labeled as of the final query day -- the paper's
    "almost two years later" ground truth.  In this mode a full replay
    is *provably equivalent* to batch learning: the rules selected at
    each month boundary equal
    ``learn_rules(labeled, alexa, month).select(0.001, 1)`` (the
    online classifier's default ``tau`` and ``min_coverage``),
    because the training instances, their sha1 ordering, and PART's
    fit are all reproduced exactly.

``live``
    Labels come from a :class:`~repro.labeling.rescan.RescanScheduler`
    at the file's first-seen day and refresh as rescans land.  This is
    what a real deployment sees: observations enter with whatever label
    was visible at the time (flips affect *future* windows only), so
    early months train on immature ground truth -- the Maat-style
    label-maturity effect, measurable here by diffing against matured
    mode.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from ..core.dataset import BENIGN_CLASS, MALICIOUS_CLASS
from ..core.drift import (
    DistributionDriftDetector,
    DistributionShift,
    DriftReport,
    rule_drift,
)
from ..core.features import feature_values
from ..core.online import OnlineRuleClassifier
from ..core.rules import RuleSet
from ..labeling.ground_truth import GroundTruthLabeler
from ..labeling.labels import FileLabel
from ..labeling.rescan import RescanScheduler
from ..labeling.whitelists import AlexaService
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..telemetry.events import MONTH_STARTS, DownloadEvent

__all__ = ["LifecycleReport", "RuleLifecycle"]

_CONFIDENT = (FileLabel.BENIGN, FileLabel.MALICIOUS)


@dataclasses.dataclass(frozen=True)
class LifecycleReport:
    """Summary of one full stream's rule lifecycle."""

    observations: int
    retrains: int
    months_closed: int
    rules_per_month: Dict[int, int]
    drift_reports: List[DriftReport]
    shifts: List[DistributionShift]
    label_flips: int


class RuleLifecycle:
    """Feeds streamed events through labeling into online rule learning."""

    def __init__(
        self,
        labeler: GroundTruthLabeler,
        alexa: AlexaService,
        files,
        processes,
        matured: bool = True,
    ) -> None:
        self._labeler = labeler
        self._alexa = alexa
        self._files = files
        self._processes = processes
        self.matured = matured
        self.rescan = None if matured else RescanScheduler(labeler)
        self.online = OnlineRuleClassifier(
            # Month boundaries pass explicit windows; make the implicit
            # cadence irrelevant rather than a second retrain source.
            window_days=float(MONTH_STARTS[-1]),
            retrain_interval_days=float(MONTH_STARTS[-1]),
        )
        self.drift_detector = DistributionDriftDetector()
        self._seen: Set[Tuple[str, int]] = set()
        self._file_labels: Dict[str, FileLabel] = {}
        self._process_labels: Dict[str, FileLabel] = {}
        self._current_month: Optional[int] = None
        self.observations = 0
        self.monthly_rules: List[Tuple[int, RuleSet]] = []
        self.drift_reports: List[DriftReport] = []
        self.label_flips = 0

    # ------------------------------------------------------------------
    # Labeling
    # ------------------------------------------------------------------

    def _file_label(self, sha1: str, day: float) -> FileLabel:
        if self.matured:
            label = self._file_labels.get(sha1)
            if label is None:
                label = self._labeler.label_hash(sha1)
                self._file_labels[sha1] = label
            return label
        assert self.rescan is not None
        self.rescan.track(sha1, day)
        flips = self.rescan.advance(day)
        self.label_flips += len(flips)
        label = self.rescan.label_of(sha1)
        assert label is not None
        return label

    def _process_label(self, sha1: str, day: float) -> FileLabel:
        label = self._process_labels.get(sha1)
        if label is None:
            if self.matured:
                label = self._labeler.label_hash(sha1)
            else:
                label = self._labeler.label_hash_at(sha1, day)
            self._process_labels[sha1] = label
        return label

    # ------------------------------------------------------------------
    # Stream intake
    # ------------------------------------------------------------------

    def observe_event(self, event: DownloadEvent) -> None:
        """Process one *reported* event (post-prevalence-filter).

        Only the first event of each ``(file, month)`` pair contributes
        a training observation -- the same "describe a file by its first
        download of the window" convention the batch
        :class:`~repro.core.features.FeatureExtractor` uses.
        """
        month = event.month
        if self._current_month is None:
            self._current_month = month
        while month > self._current_month:
            self._close_month(self._current_month)
            self._current_month += 1
        key = (event.file_sha1, month)
        if key in self._seen:
            return
        self._seen.add(key)
        label = self._file_label(event.file_sha1, event.timestamp)
        shift = self.drift_detector.observe(label.value)
        if shift is not None:
            obs_metrics.counter(
                "serve.drift_shifts", "Label-distribution shifts detected"
            ).inc()
        if label not in _CONFIDENT:
            return
        values = feature_values(
            self._files[event.file_sha1],
            self._processes[event.process_sha1],
            self._process_label(event.process_sha1, event.timestamp),
            self._alexa.rank(event.e2ld),
        )
        self.online.observe(
            values,
            MALICIOUS_CLASS if label is FileLabel.MALICIOUS else BENIGN_CLASS,
            event.timestamp,
            sha1=event.file_sha1,
        )
        self.observations += 1

    # ------------------------------------------------------------------
    # Retraining
    # ------------------------------------------------------------------

    def _close_month(self, month: int) -> RuleSet:
        """Month-boundary retrain on exactly that month's window."""
        end = float(MONTH_STARTS[month + 1])
        window = end - MONTH_STARTS[month]
        with trace.span("serve.month_retrain", month=month) as span:
            rules = self.online.retrain(end, window_days=window)
            span.set_attribute("rules", len(rules))
        if self.monthly_rules:
            report = rule_drift(self.monthly_rules[-1][1], rules)
            self.drift_reports.append(report)
            obs_metrics.gauge(
                "serve.rule_persistence",
                "Fraction of last month's rules surviving the retrain",
            ).set(report.persistence_rate)
        self.monthly_rules.append((month, rules))
        obs_metrics.counter(
            "serve.month_retrains", "Month-boundary rule retrains"
        ).inc()
        return rules

    def finalize(self) -> LifecycleReport:
        """Close the in-progress month and summarize the run."""
        if self._current_month is not None and (
            not self.monthly_rules
            or self.monthly_rules[-1][0] != self._current_month
        ):
            self._close_month(self._current_month)
        return LifecycleReport(
            observations=self.observations,
            retrains=self.online.retrain_count,
            months_closed=len(self.monthly_rules),
            rules_per_month={
                month: len(rules) for month, rules in self.monthly_rules
            },
            drift_reports=self.drift_reports,
            shifts=list(self.drift_detector.shifts),
            label_flips=self.label_flips,
        )

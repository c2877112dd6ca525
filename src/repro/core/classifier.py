"""Rule-based classification with conflict rejection (Section VI-D).

The learned rules are applied as an *unordered* set: a file may match
several rules.  When matching rules disagree, the paper's system
"rejects" the file -- it refuses to classify rather than risk an error.
Alternative conflict policies (majority vote, first match) are provided
for the ablation benchmarks.

Two execution paths produce identical decisions:

* :meth:`RuleBasedClassifier.classify` -- walk every rule for one
  instance.  Single-instance callers (online labeling, evasion
  experiments, the rule-system baseline) use it, and it is the
  reference the columnar path is tested against;
* the **columnar path** (:mod:`repro.core.columnar`) -- taken by
  :meth:`RuleBasedClassifier.classify_batch` and
  :meth:`RuleBasedClassifier.evaluate`: feature values are interned to
  integer codes, rules compile to per-feature allowed-code masks, and
  identical feature tuples are deduplicated (``np.unique``) so each
  distinct tuple is resolved once.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import Counter
from typing import List, Optional, Sequence

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace
from . import columnar
from .dataset import BENIGN_CLASS, MALICIOUS_CLASS, Instance
from .rules import RuleSet


class ConflictPolicy(enum.Enum):
    """How disagreements among matching rules are handled."""

    REJECT = "reject"
    MAJORITY = "majority"
    FIRST_MATCH = "first_match"


@dataclasses.dataclass(frozen=True)
class Decision:
    """Outcome of classifying one feature vector."""

    label: Optional[str]
    matched_rules: tuple
    rejected: bool

    @property
    def matched(self) -> bool:
        """Whether any rule matched (even if the result was rejected)."""
        return bool(self.matched_rules)

    @property
    def classified(self) -> bool:
        """Whether a label was produced."""
        return self.label is not None


@dataclasses.dataclass
class EvaluationResult:
    """TP/FP accounting over a labeled test set (Table XVII columns)."""

    malicious_matched: int
    true_positives: int
    benign_matched: int
    false_positives: int
    rejected: int
    unmatched: int
    fp_rules: tuple

    @property
    def tp_rate(self) -> float:
        """TP rate over matched-and-classified malicious samples."""
        return (
            self.true_positives / self.malicious_matched
            if self.malicious_matched else 0.0
        )

    @property
    def fp_rate(self) -> float:
        """FP rate over matched-and-classified benign samples."""
        return (
            self.false_positives / self.benign_matched
            if self.benign_matched else 0.0
        )


def record_decision_metrics(decisions: int, rejected: int) -> None:
    """Feed the shared decision/conflict counters.

    One helper for every call site that batch-classifies (labeled test
    sets in :meth:`RuleBasedClassifier.evaluate`, unknown files in
    :func:`repro.core.evaluation.evaluate_month_pair`) so the counter
    names and descriptions cannot drift apart.
    """
    obs_metrics.counter(
        "classifier.decisions", "Instances run through rule matching"
    ).inc(decisions)
    obs_metrics.counter(
        "classifier.conflicts_rejected",
        "Decisions rejected due to conflicting rules",
    ).inc(rejected)


def _record_fast_path_metrics(batch: columnar.MatchedBatch) -> None:
    obs_metrics.counter(
        "classifier.fast_path_rows",
        "Rows classified via the columnar fast path",
    ).inc(batch.n_rows)
    obs_metrics.counter(
        "classifier.unique_rows",
        "Distinct feature tuples resolved after row dedup",
    ).inc(batch.n_unique)


#: Maps columnar label codes back to class-label strings.
_LABEL_FROM_CODE = {
    columnar.LABEL_MALICIOUS: MALICIOUS_CLASS,
    columnar.LABEL_BENIGN: BENIGN_CLASS,
    columnar.LABEL_NONE: None,
}


class RuleBasedClassifier:
    """Applies a selected rule set with a conflict policy.

    Batch entry points run on the columnar path (see the module
    docstring); it is decision-for-decision identical to
    :meth:`classify` (property-tested).  The rule set is snapshotted by
    the columnar path on the first batch call; mutating ``rules``
    afterwards requires a fresh classifier.
    """

    def __init__(
        self,
        rules: RuleSet,
        policy: ConflictPolicy = ConflictPolicy.REJECT,
    ) -> None:
        self.rules = rules
        self.policy = policy
        self._evaluator: Optional[columnar.ColumnarRuleEvaluator] = None

    def classify(self, values: Sequence) -> Decision:
        """Classify one feature-value tuple (scalar reference path)."""
        matched = tuple(
            rule for rule in self.rules if rule.matches(values)
        )
        if not matched:
            return Decision(label=None, matched_rules=(), rejected=False)
        predictions = {rule.prediction for rule in matched}
        if len(predictions) == 1:
            return Decision(
                label=matched[0].prediction, matched_rules=matched,
                rejected=False,
            )
        if self.policy == ConflictPolicy.REJECT:
            return Decision(label=None, matched_rules=matched, rejected=True)
        if self.policy == ConflictPolicy.FIRST_MATCH:
            return Decision(
                label=matched[0].prediction, matched_rules=matched,
                rejected=False,
            )
        votes = Counter(rule.prediction for rule in matched)
        ranked = votes.most_common()
        if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
            return Decision(label=None, matched_rules=matched, rejected=True)
        return Decision(
            label=ranked[0][0], matched_rules=matched, rejected=False
        )

    def _match_batch(self, rows: Sequence[Sequence]) -> columnar.MatchedBatch:
        """Columnar match for a batch (see :meth:`ColumnarRuleEvaluator
        .match_rows` for the :class:`ValueError` cases)."""
        if self._evaluator is None:
            self._evaluator = columnar.ColumnarRuleEvaluator(self.rules.rules)
        return self._evaluator.match_rows(rows)

    def classify_batch(self, rows: Sequence[Sequence]) -> List[Decision]:
        """Classify many feature-value tuples at once.

        Returns one :class:`Decision` per row, in order, identical to
        calling :meth:`classify` on each row.  Each distinct feature
        tuple is resolved once and its decision shared by every
        duplicate row.
        """
        batch = self._match_batch(list(rows))
        _record_fast_path_metrics(batch)
        labels, rejected = batch.unique_resolve(self.policy.value)
        evaluator_rules = self._evaluator.rules
        unique_decisions = [
            Decision(
                label=_LABEL_FROM_CODE[int(labels[column])],
                matched_rules=tuple(
                    evaluator_rules[index]
                    for index in batch.matched_rule_indices(column)
                ),
                rejected=bool(rejected[column]),
            )
            for column in range(batch.n_unique)
        ]
        return [unique_decisions[column] for column in batch.inverse]

    def evaluate(self, instances: Sequence[Instance]) -> EvaluationResult:
        """TP/FP evaluation over labeled instances.

        Following Section VI-D, rates are computed only over samples that
        match at least one rule and are not rejected.  Aggregate counts
        feed the metrics registry once per call -- the inner matching
        loops stay uninstrumented.
        """
        with trace.span(
            "core.classifier_evaluate",
            instances=len(instances),
            rules=len(self.rules),
        ) as span:
            batch = self._match_batch([inst.values for inst in instances])
            span.set_attribute("unique_rows", batch.n_unique)
            _record_fast_path_metrics(batch)
            result = self._evaluate_batch(instances, batch)
        record_decision_metrics(len(instances), result.rejected)
        return result

    def _evaluate_batch(
        self,
        instances: Sequence[Instance],
        batch: columnar.MatchedBatch,
    ) -> EvaluationResult:
        """Columnar TP/FP accounting, count for count equal to the
        per-instance reference in ``tests/core/scalar_reference.py``.

        ``fp_rules`` come out in rule order; consumers treat the tuple
        as a set.
        """
        labels, row_rejected = batch.resolve(self.policy.value)
        row_matched = batch.matched_any()
        instance_malicious = np.fromiter(
            (inst.label == MALICIOUS_CLASS for inst in instances),
            dtype=bool,
            count=len(instances),
        )
        classified = row_matched & ~row_rejected
        labeled_malicious = labels == columnar.LABEL_MALICIOUS
        false_positive_rows = ~instance_malicious & labeled_malicious
        fp_rule_indices: set = set()
        for column in np.unique(batch.inverse[false_positive_rows]):
            indices = batch.matched_rule_indices(int(column))
            fp_rule_indices.update(
                int(index)
                for index in indices[batch.is_malicious[indices]]
            )
        evaluator_rules = self._evaluator.rules
        return EvaluationResult(
            malicious_matched=int((instance_malicious & classified).sum()),
            true_positives=int(
                (instance_malicious & labeled_malicious).sum()
            ),
            benign_matched=int((~instance_malicious & classified).sum()),
            false_positives=int(false_positive_rows.sum()),
            rejected=int(row_rejected.sum()),
            unmatched=int((~row_matched).sum()),
            fp_rules=tuple(
                evaluator_rules[index] for index in sorted(fp_rule_indices)
            ),
        )

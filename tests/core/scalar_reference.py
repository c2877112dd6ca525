"""Per-instance TP/FP accounting: the reference for the columnar path.

:meth:`repro.core.classifier.RuleBasedClassifier.evaluate` counts on
the columnar path only.  :func:`scalar_evaluate` classifies each
instance with :meth:`~repro.core.classifier.RuleBasedClassifier.classify`
and tallies the Table XVII columns one by one;
``tests/core/test_columnar.py`` requires the two to agree count for
count.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.classifier import EvaluationResult, RuleBasedClassifier
from repro.core.dataset import MALICIOUS_CLASS, Instance


def scalar_evaluate(
    classifier: RuleBasedClassifier, instances: Sequence[Instance]
) -> EvaluationResult:
    """TP/FP evaluation by classifying one instance at a time.

    ``fp_rules`` iterates a set, so compare it as a set.
    """
    malicious_matched = 0
    true_positives = 0
    benign_matched = 0
    false_positives = 0
    rejected = 0
    unmatched = 0
    fp_rules = set()
    for instance in instances:
        decision = classifier.classify(instance.values)
        if not decision.matched:
            unmatched += 1
            continue
        if decision.rejected:
            rejected += 1
            continue
        if instance.label == MALICIOUS_CLASS:
            malicious_matched += 1
            if decision.label == MALICIOUS_CLASS:
                true_positives += 1
        else:
            benign_matched += 1
            if decision.label == MALICIOUS_CLASS:
                false_positives += 1
                for rule in decision.matched_rules:
                    if rule.prediction == MALICIOUS_CLASS:
                        fp_rules.add(rule)
    return EvaluationResult(
        malicious_matched=malicious_matched,
        true_positives=true_positives,
        benign_matched=benign_matched,
        false_positives=false_positives,
        rejected=rejected,
        unmatched=unmatched,
        fp_rules=tuple(fp_rules),
    )

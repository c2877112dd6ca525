"""Unit tests for the conflict-rejecting rule-based classifier."""

import pytest

from repro.core.classifier import ConflictPolicy, RuleBasedClassifier
from repro.core.dataset import BENIGN_CLASS, MALICIOUS_CLASS, Instance
from repro.core.rules import Condition, Rule, RuleSet


def _cond(attribute, value):
    return Condition(feature=f"f{attribute}", attribute=attribute, value=value)


MAL_RULE = Rule((_cond(0, "somoto"),), MALICIOUS_CLASS, 50, 0)
BEN_RULE = Rule((_cond(1, "inno"),), BENIGN_CLASS, 30, 0)
MAL_RULE_2 = Rule((_cond(1, "inno"), _cond(0, "somoto")), MALICIOUS_CLASS, 5, 0)


class TestClassify:
    def test_no_match(self):
        classifier = RuleBasedClassifier(RuleSet([MAL_RULE]))
        decision = classifier.classify(("other", "upx"))
        assert not decision.matched
        assert decision.label is None
        assert not decision.rejected

    def test_single_match(self):
        classifier = RuleBasedClassifier(RuleSet([MAL_RULE, BEN_RULE]))
        decision = classifier.classify(("somoto", "nsis"))
        assert decision.label == MALICIOUS_CLASS
        assert decision.classified

    def test_agreeing_matches_not_rejected(self):
        classifier = RuleBasedClassifier(RuleSet([MAL_RULE, MAL_RULE_2]))
        decision = classifier.classify(("somoto", "inno"))
        assert decision.label == MALICIOUS_CLASS
        assert len(decision.matched_rules) == 2

    def test_conflict_rejected_by_default(self):
        classifier = RuleBasedClassifier(RuleSet([MAL_RULE, BEN_RULE]))
        decision = classifier.classify(("somoto", "inno"))
        assert decision.rejected
        assert decision.label is None
        assert decision.matched

    def test_first_match_policy(self):
        classifier = RuleBasedClassifier(
            RuleSet([MAL_RULE, BEN_RULE]), ConflictPolicy.FIRST_MATCH
        )
        decision = classifier.classify(("somoto", "inno"))
        assert decision.label == MALICIOUS_CLASS

    def test_majority_policy(self):
        classifier = RuleBasedClassifier(
            RuleSet([MAL_RULE, MAL_RULE_2, BEN_RULE]), ConflictPolicy.MAJORITY
        )
        decision = classifier.classify(("somoto", "inno"))
        assert decision.label == MALICIOUS_CLASS

    def test_majority_tie_rejected(self):
        classifier = RuleBasedClassifier(
            RuleSet([MAL_RULE, BEN_RULE]), ConflictPolicy.MAJORITY
        )
        assert classifier.classify(("somoto", "inno")).rejected


class TestEvaluate:
    def _instances(self):
        return [
            Instance(("somoto", "nsis"), MALICIOUS_CLASS),   # TP
            Instance(("somoto", "upx"), MALICIOUS_CLASS),    # TP
            Instance(("clean", "inno"), BENIGN_CLASS),       # TN (benign rule)
            Instance(("clean", "upx"), BENIGN_CLASS),        # unmatched
            Instance(("somoto", "inno"), BENIGN_CLASS),      # conflict -> rej
            Instance(("somoto", "dll"), BENIGN_CLASS),       # FP
        ]

    def test_counts(self):
        classifier = RuleBasedClassifier(RuleSet([MAL_RULE, BEN_RULE]))
        result = classifier.evaluate(self._instances())
        assert result.malicious_matched == 2
        assert result.true_positives == 2
        assert result.tp_rate == 1.0
        assert result.benign_matched == 2  # TN + FP (rejection excluded)
        assert result.false_positives == 1
        assert result.fp_rate == pytest.approx(0.5)
        assert result.rejected == 1
        assert result.unmatched == 1

    def test_fp_rules_identified(self):
        classifier = RuleBasedClassifier(RuleSet([MAL_RULE, BEN_RULE]))
        result = classifier.evaluate(self._instances())
        assert result.fp_rules == (MAL_RULE,)

    def test_empty_evaluation(self):
        classifier = RuleBasedClassifier(RuleSet([]))
        result = classifier.evaluate([])
        assert result.tp_rate == 0.0
        assert result.fp_rate == 0.0

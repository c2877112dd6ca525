"""Tests for the rule-drift analysis."""

import pytest

from repro.core.dataset import BENIGN_CLASS, MALICIOUS_CLASS
from repro.core.drift import drift_series, persistent_rules, rule_drift
from repro.core.features import FEATURE_NAMES
from repro.core.rules import Condition, Rule, RuleSet


def _rule(signer, prediction=MALICIOUS_CLASS, coverage=10):
    return Rule(
        conditions=(
            Condition(
                "file_signer", FEATURE_NAMES.index("file_signer"), signer
            ),
        ),
        prediction=prediction,
        coverage=coverage,
        errors=0,
    )


class TestRuleDrift:
    def test_identical_sets_fully_persist(self):
        rules = RuleSet([_rule("a"), _rule("b")])
        report = rule_drift(rules, RuleSet([_rule("b"), _rule("a")]))
        assert report.persisted == 2
        assert report.persistence_rate == 1.0
        assert report.novelty_rate == 0.0

    def test_statistics_do_not_affect_identity(self):
        report = rule_drift(
            RuleSet([_rule("a", coverage=5)]),
            RuleSet([_rule("a", coverage=50)]),
        )
        assert report.persisted == 1

    def test_prediction_is_part_of_identity(self):
        report = rule_drift(
            RuleSet([_rule("a", MALICIOUS_CLASS)]),
            RuleSet([_rule("a", BENIGN_CLASS)]),
        )
        assert report.persisted == 0
        assert report.appeared == 1
        assert report.disappeared == 1

    def test_empty_sets(self):
        report = rule_drift(RuleSet([]), RuleSet([]))
        assert report.persistence_rate == 0.0
        assert report.novelty_rate == 0.0

    def test_series_length(self):
        sets = [RuleSet([_rule("a")]) for _ in range(4)]
        assert len(drift_series(sets)) == 3


class TestPersistentRules:
    def test_intersection_across_months(self):
        months = [
            RuleSet([_rule("somoto"), _rule("monthly1")]),
            RuleSet([_rule("somoto"), _rule("monthly2")]),
            RuleSet([_rule("somoto", coverage=99), _rule("monthly3")]),
        ]
        stable = persistent_rules(months)
        assert len(stable) == 1
        assert stable[0].coverage == 99  # freshest statistics win

    def test_empty_input(self):
        assert persistent_rules([]) == []


class TestDriftOnWorld:
    def test_signer_rules_persist_across_months(self, medium_session):
        from repro.core.evaluation import learn_rules

        first, _ = learn_rules(medium_session.labeled, medium_session.alexa, 0)
        second, _ = learn_rules(medium_session.labeled, medium_session.alexa, 1)
        report = rule_drift(first.select(0.001), second.select(0.001))
        # The signer ecosystem is stable month to month, so a healthy
        # fraction of the rules should be relearned verbatim.
        assert report.persistence_rate > 0.3
        assert report.appeared > 0  # but there is churn too

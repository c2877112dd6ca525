"""Tests for rule parsing and decision explanation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import RuleBasedClassifier
from repro.core.dataset import BENIGN_CLASS, MALICIOUS_CLASS
from repro.core.features import ALEXA_BINS, FEATURE_NAMES, UNSIGNED
from repro.core.rule_text import (
    RuleParseError,
    explain_decision,
    parse_rule,
    parse_rules,
)
from repro.core.rules import Condition, Rule, RuleSet


def _cond(feature, value):
    return Condition(
        feature=feature, attribute=FEATURE_NAMES.index(feature), value=value
    )


class TestParseRule:
    def test_paper_example_rules(self):
        rule = parse_rule(
            'IF (file\'s signer is "SecureInstall") -> file is malicious.'
        )
        assert rule.prediction == MALICIOUS_CLASS
        assert rule.conditions[0].feature == "file_signer"
        assert rule.conditions[0].value == "SecureInstall"

    def test_multi_condition_rule(self):
        rule = parse_rule(
            'IF (file is not signed) AND (downloading process is '
            '"Acrobat Reader") -> file is malicious.'
        )
        assert len(rule.conditions) == 2
        assert rule.conditions[0].value == UNSIGNED
        assert rule.conditions[1].feature == "proc_type"
        assert rule.conditions[1].value == "acrobat"

    def test_alexa_phrases(self):
        rule = parse_rule(
            "IF (Alexa rank of file's URL is between 10,000 and 100,000) "
            "-> file is benign."
        )
        assert rule.conditions[0].value == "10k-100k"
        assert rule.prediction == BENIGN_CLASS

    def test_default_rule(self):
        rule = parse_rule("IF (anything) -> file is benign.")
        assert rule.is_default

    def test_garbage_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule("this is not a rule")
        with pytest.raises(RuleParseError):
            parse_rule("IF (the moon is full) -> file is malicious.")

    def test_round_trip_is_identity(self):
        original = Rule(
            conditions=(
                _cond("file_signer", UNSIGNED),
                _cond("file_packer", "NSIS"),
                _cond("proc_type", "windows"),
                _cond("alexa_bin", "unranked"),
            ),
            prediction=MALICIOUS_CLASS,
            coverage=0,
            errors=0,
        )
        assert parse_rule(original.render()) == original


_FEATURE_VALUES = {
    "file_signer": [UNSIGNED, "Somoto Ltd.", "TeamViewer"],
    "file_ca": ["<no-ca>", "thawte code signing ca g2"],
    "file_packer": ["<unpacked>", "NSIS", "UPX"],
    "proc_signer": [UNSIGNED, "Microsoft Windows"],
    "proc_ca": ["<no-ca>", "verisign class 3 code signing 2010 ca"],
    "proc_packer": ["<unpacked>", "INNO"],
    "proc_type": ["browser", "windows", "java", "acrobat", "other",
                  "malicious-process", "unknown-process"],
    "alexa_bin": list(ALEXA_BINS),
}


@st.composite
def random_rule(draw):
    features = draw(
        st.lists(
            st.sampled_from(FEATURE_NAMES), min_size=1, max_size=4,
            unique=True,
        )
    )
    conditions = tuple(
        _cond(feature, draw(st.sampled_from(_FEATURE_VALUES[feature])))
        for feature in features
    )
    prediction = draw(st.sampled_from([BENIGN_CLASS, MALICIOUS_CLASS]))
    return Rule(conditions, prediction, 0, 0)


class TestRoundTripProperty:
    @given(rule=random_rule())
    @settings(max_examples=120, deadline=None)
    def test_render_parse_round_trip(self, rule):
        assert parse_rule(rule.render()) == rule


class TestParseRules:
    def test_rule_file_with_comments(self):
        text = (
            "# analyst-curated rules\n"
            "\n"
            'IF (file\'s signer is "Somoto Ltd.") -> file is malicious.'
            "  # classic\n"
            'IF (file\'s signer is "TeamViewer") -> file is benign.\n'
        )
        rules = parse_rules(text)
        assert len(rules) == 2
        assert rules.malicious_rules == 1

    def test_error_reports_line_number(self):
        with pytest.raises(RuleParseError, match="line 2"):
            parse_rules("IF (anything) -> file is benign.\nbroken line\n")

    def test_parsed_rules_classify(self):
        rules = parse_rules(
            'IF (file\'s signer is "Somoto Ltd.") -> file is malicious.\n'
        )
        classifier = RuleBasedClassifier(RuleSet(list(rules)))
        values = ["x"] * len(FEATURE_NAMES)
        values[FEATURE_NAMES.index("file_signer")] = "Somoto Ltd."
        assert classifier.classify(tuple(values)).label == MALICIOUS_CLASS


class TestExplainDecision:
    def _rules(self):
        return RuleSet(
            [
                Rule((_cond("file_signer", "Somoto Ltd."),),
                     MALICIOUS_CLASS, 10, 0),
                Rule((_cond("file_packer", "INNO"),), BENIGN_CLASS, 10, 0),
            ]
        )

    def _values(self, signer, packer):
        values = ["x"] * len(FEATURE_NAMES)
        values[FEATURE_NAMES.index("file_signer")] = signer
        values[FEATURE_NAMES.index("file_packer")] = packer
        return tuple(values)

    def test_unmatched_explanation(self):
        classifier = RuleBasedClassifier(self._rules())
        decision = classifier.classify(self._values("other", "other"))
        assert "stays unknown" in explain_decision(decision)

    def test_labeled_explanation_lists_rules(self):
        classifier = RuleBasedClassifier(self._rules())
        decision = classifier.classify(self._values("Somoto Ltd.", "other"))
        text = explain_decision(decision)
        assert "Labeled malicious" in text
        assert "Somoto Ltd." in text

    def test_rejection_explanation(self):
        classifier = RuleBasedClassifier(self._rules())
        decision = classifier.classify(self._values("Somoto Ltd.", "INNO"))
        text = explain_decision(decision)
        assert text.startswith("Rejected")
        assert "benign vs malicious" in text

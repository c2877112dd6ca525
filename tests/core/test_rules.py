"""Unit tests for rules, conditions and rule sets."""

import pytest

from repro.core.dataset import BENIGN_CLASS, MALICIOUS_CLASS
from repro.core.features import FEATURE_NAMES, UNSIGNED
from repro.core.rules import Condition, Rule, RuleSet


def _cond(feature, value):
    return Condition(
        feature=feature,
        attribute=FEATURE_NAMES.index(feature),
        value=value,
    )


def _vector(**overrides):
    values = {
        "file_signer": "<unsigned>",
        "file_ca": "<no-ca>",
        "file_packer": "<unpacked>",
        "proc_signer": "<unsigned>",
        "proc_ca": "<no-ca>",
        "proc_packer": "<unpacked>",
        "proc_type": "browser",
        "alexa_bin": "unranked",
    }
    values.update(overrides)
    return tuple(values[name] for name in FEATURE_NAMES)


class TestCondition:
    def test_categorical_match(self):
        condition = _cond("file_signer", "Somoto Ltd.")
        assert condition.matches(_vector(file_signer="Somoto Ltd."))
        assert not condition.matches(_vector(file_signer="TeamViewer"))

    def test_paper_style_rendering(self):
        assert _cond("file_signer", "SecureInstall").render() == (
            'file\'s signer is "SecureInstall"'
        )
        assert _cond("file_signer", UNSIGNED).render() == "file is not signed"
        assert _cond("proc_type", "acrobat").render() == (
            'downloading process is "Acrobat Reader"'
        )
        assert _cond("alexa_bin", "10k-100k").render() == (
            "Alexa rank of file's URL is between 10,000 and 100,000"
        )
        assert _cond("file_packer", "NSIS").render() == (
            'file is packed by "NSIS"'
        )


class TestRule:
    def test_conjunction_semantics(self):
        rule = Rule(
            conditions=(
                _cond("file_signer", UNSIGNED),
                _cond("proc_type", "acrobat"),
            ),
            prediction=MALICIOUS_CLASS,
            coverage=10,
            errors=0,
        )
        assert rule.matches(_vector(proc_type="acrobat"))
        assert not rule.matches(_vector(proc_type="browser"))
        assert not rule.matches(
            _vector(file_signer="Adobe", proc_type="acrobat")
        )

    def test_render_matches_paper_format(self):
        rule = Rule(
            conditions=(
                _cond("file_signer", UNSIGNED),
                _cond("proc_type", "acrobat"),
            ),
            prediction=MALICIOUS_CLASS,
            coverage=10,
            errors=0,
        )
        assert rule.render() == (
            'IF (file is not signed) AND (downloading process is '
            '"Acrobat Reader") -> file is malicious.'
        )

    def test_default_rule(self):
        rule = Rule((), BENIGN_CLASS, 100, 20)
        assert rule.is_default
        assert rule.matches(_vector())
        assert rule.error_rate == pytest.approx(0.2)
        assert "anything" in rule.render()

    def test_invalid_statistics_rejected(self):
        with pytest.raises(ValueError):
            Rule((), BENIGN_CLASS, 5, 6)
        with pytest.raises(ValueError):
            Rule((), BENIGN_CLASS, -1, 0)


class TestRuleSet:
    def _ruleset(self):
        return RuleSet(
            [
                Rule((_cond("file_signer", "Somoto Ltd."),),
                     MALICIOUS_CLASS, 50, 0),
                Rule((_cond("file_signer", "TeamViewer"),),
                     BENIGN_CLASS, 30, 0),
                Rule(
                    (
                        _cond("file_packer", "NSIS"),
                        _cond("proc_type", "windows"),
                    ),
                    MALICIOUS_CLASS, 200, 10,
                ),
                Rule((), BENIGN_CLASS, 1000, 300),
            ]
        )

    def test_select_by_tau(self):
        rules = self._ruleset()
        assert len(rules.select(0.0)) == 2
        assert len(rules.select(0.06)) == 3

    def test_select_drops_default(self):
        rules = self._ruleset()
        assert not any(rule.is_default for rule in rules.select(1.0))

    def test_select_min_coverage(self):
        rules = self._ruleset()
        assert len(rules.select(0.0, min_coverage=40)) == 1

    def test_class_counts(self):
        rules = self._ruleset()
        assert rules.malicious_rules == 2
        assert rules.benign_rules == 2

    def test_feature_usage(self):
        usage = self._ruleset().feature_usage()
        assert usage["file_signer"] == pytest.approx(0.5)
        assert usage["file_packer"] == pytest.approx(0.25)
        assert usage["file_ca"] == 0.0

    def test_single_condition_fraction(self):
        assert self._ruleset().single_condition_fraction() == pytest.approx(0.5)

    def test_empty_ruleset_statistics(self):
        empty = RuleSet([])
        assert empty.single_condition_fraction() == 0.0
        assert all(v == 0.0 for v in empty.feature_usage().values())

    def test_render_one_rule_per_line(self):
        rendered = self._ruleset().render()
        assert len(rendered.splitlines()) == 4

"""Unit and property tests for the PART rule learner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Instance
from repro.core.part import PartLearner
from repro.core.rules import RuleSet

SCHEMA = ("signer", "packer")


def _inst(signer, packer, label):
    return Instance(values=(signer, packer), label=label)


def _separable_dataset():
    return (
        [_inst("somoto", "nsis", "malicious")] * 10
        + [_inst("firseria", "upx", "malicious")] * 6
        + [_inst("teamviewer", "inno", "benign")] * 8
        + [_inst("google", "none", "benign")] * 4
    )


#: The fixed datasets fitted below; ``test_part_reference.py`` fits
#: each with the reference learner too.
FIXTURES = {
    "separable": _separable_dataset(),
    # "unsigned -> malicious" is clean on the remainder after signed
    # benign files are removed, but dirty on the full set.
    "restated": (
        [_inst("unsigned", "nsis", "malicious")] * 10
        + [_inst("unsigned", "inno", "benign")] * 4
        + [_inst("teamviewer", "inno", "benign")] * 6
    ),
    "single_class": [_inst("a", "b", "benign")] * 5,
    "empty": [],
}


class TestFit:
    def test_rules_cover_all_instances(self):
        instances = _separable_dataset()
        rules = PartLearner(SCHEMA).fit(instances)
        for instance in instances:
            assert any(rule.matches(instance.values) for rule in rules)

    def test_separable_data_gets_pure_rules(self):
        # Every conditioned rule is pure; only the trailing default rule
        # (which is restated over the full training set) may carry errors.
        rules = PartLearner(SCHEMA).fit(_separable_dataset())
        for rule in rules:
            if not rule.is_default:
                assert rule.errors == 0

    def test_signer_rules_extracted(self):
        rules = PartLearner(SCHEMA).fit(_separable_dataset())
        rendered = rules.render()
        assert "somoto" in rendered
        assert "file is malicious" in rendered or "malicious" in rendered

    def test_largest_group_extracted_first(self):
        rules = PartLearner(SCHEMA).fit(_separable_dataset())
        first = rules.rules[0]
        assert first.coverage == 10  # the somoto group

    def test_empty_input_gives_empty_ruleset(self):
        rules = PartLearner(SCHEMA).fit([])
        assert len(rules) == 0

    def test_single_class_gives_default_rule(self):
        instances = FIXTURES["single_class"]
        rules = PartLearner(SCHEMA).fit(instances)
        assert len(rules) == 1
        assert rules.rules[0].is_default
        assert rules.rules[0].prediction == "benign"

    def test_deterministic(self):
        first = PartLearner(SCHEMA).fit(_separable_dataset()).render()
        second = PartLearner(SCHEMA).fit(_separable_dataset()).render()
        assert first == second


class TestRestatedStatistics:
    def test_rule_stats_measured_on_full_training_set(self):
        # Restating must expose the errors of "unsigned -> malicious".
        instances = FIXTURES["restated"]
        rules = PartLearner(SCHEMA).fit(instances)
        for rule in rules:
            expected_coverage = sum(
                1 for i in instances if rule.matches(i.values)
            )
            expected_errors = sum(
                1
                for i in instances
                if rule.matches(i.values) and i.label != rule.prediction
            )
            assert rule.coverage == expected_coverage
            assert rule.errors == expected_errors


@st.composite
def random_instances(draw):
    count = draw(st.integers(min_value=1, max_value=40))
    instances = []
    for _ in range(count):
        signer = draw(st.sampled_from(["a", "b", "c", "d"]))
        packer = draw(st.sampled_from(["x", "y"]))
        label = draw(st.sampled_from(["benign", "malicious"]))
        instances.append(_inst(signer, packer, label))
    return instances


class TestProperties:
    @given(random_instances())
    @settings(max_examples=40, deadline=None)
    def test_fit_terminates_and_covers(self, instances):
        rules = PartLearner(SCHEMA).fit(instances)
        assert isinstance(rules, RuleSet)
        for instance in instances:
            assert any(rule.matches(instance.values) for rule in rules)

    @given(random_instances())
    @settings(max_examples=40, deadline=None)
    def test_restated_stats_are_consistent(self, instances):
        rules = PartLearner(SCHEMA).fit(instances)
        for rule in rules:
            assert 0 <= rule.errors <= rule.coverage <= len(instances)

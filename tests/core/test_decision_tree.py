"""Unit and property tests for the C4.5 tree machinery."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Instance
from repro.core.decision_tree import (
    DecisionTree,
    SplitSelector,
    entropy,
    make_leaf,
    pessimistic_added_errors,
    subtree_errors,
)

CAT2 = ("a", "b")


def _inst(values, label):
    return Instance(values=tuple(values), label=label)


class TestEntropy:
    def test_pure_distribution_zero(self):
        assert entropy(Counter({"benign": 10})) == 0.0

    def test_uniform_binary_is_one_bit(self):
        assert entropy(Counter({"benign": 5, "malicious": 5})) == pytest.approx(1.0)

    def test_empty_distribution(self):
        assert entropy(Counter()) == 0.0

    @given(
        a=st.integers(min_value=0, max_value=500),
        b=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=80)
    def test_bounded_between_zero_and_one_bit(self, a, b):
        value = entropy(Counter({"benign": a, "malicious": b}))
        assert 0.0 <= value <= 1.0 + 1e-9


class TestPessimisticErrors:
    def test_zero_errors_still_penalized(self):
        assert pessimistic_added_errors(10, 0) > 0

    def test_penalty_shrinks_with_coverage(self):
        small = pessimistic_added_errors(2, 0) / 2
        large = pessimistic_added_errors(200, 0) / 200
        assert large < small

    def test_zero_coverage(self):
        assert pessimistic_added_errors(0, 0) == 0.0

    @given(
        coverage=st.integers(min_value=1, max_value=1000),
        error_fraction=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=80)
    def test_added_errors_nonnegative_and_bounded(self, coverage, error_fraction):
        errors = coverage * error_fraction
        added = pessimistic_added_errors(coverage, errors)
        assert added >= 0.0
        assert errors + added <= coverage + 1e-6


class TestSplitSelector:
    def test_perfect_categorical_attribute_chosen(self):
        instances = [
            _inst(("good", "noise1"), "benign"),
            _inst(("good", "noise2"), "benign"),
            _inst(("bad", "noise1"), "malicious"),
            _inst(("bad", "noise2"), "malicious"),
        ]
        split = SplitSelector(CAT2).best_split(instances)
        assert split is not None
        assert split.attribute == 0

    def test_pure_set_has_no_split(self):
        instances = [_inst(("v", "w"), "benign")] * 6
        assert SplitSelector(CAT2).best_split(instances) is None

    def test_single_valued_attribute_unsplittable(self):
        instances = [
            _inst(("same", "same"), "benign"),
            _inst(("same", "same"), "malicious"),
        ] * 3
        assert SplitSelector(CAT2).best_split(instances) is None

    def test_min_instances_respected(self):
        # One branch with a single instance cannot carry the split alone.
        instances = [
            _inst(("a", "x"), "benign"),
            _inst(("a", "x"), "benign"),
            _inst(("a", "x"), "benign"),
            _inst(("b", "x"), "malicious"),
        ]
        split = SplitSelector(CAT2).best_split(instances)
        assert split is None


class TestDecisionTree:
    def test_fits_and_predicts_separable_data(self):
        instances = [
            _inst(("signed", "upx"), "benign"),
            _inst(("signed", "inno"), "benign"),
            _inst(("evil", "upx"), "malicious"),
            _inst(("evil", "inno"), "malicious"),
        ] * 3
        tree = DecisionTree(CAT2).fit(instances)
        assert tree.predict(("signed", "upx")) == "benign"
        assert tree.predict(("evil", "inno")) == "malicious"

    def test_unseen_value_falls_back_to_majority(self):
        instances = (
            [_inst(("a", "x"), "benign")] * 6
            + [_inst(("b", "x"), "malicious")] * 3
        )
        tree = DecisionTree(CAT2).fit(instances)
        assert tree.predict(("never-seen", "x")) == "benign"

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree(CAT2).fit([])

    def test_unfitted_predict_rejected(self):
        with pytest.raises(RuntimeError):
            DecisionTree(CAT2).predict(("a", "b"))

    def test_pruning_collapses_noise(self):
        # Attribute values are pure noise: the pruned tree should be a
        # single leaf predicting the majority class.
        instances = [
            _inst((f"v{i % 7}", f"w{i % 5}"), "benign" if i % 10 else "malicious")
            for i in range(100)
        ]
        tree = DecisionTree(CAT2).fit(instances)
        assert tree.depth() <= 1
        assert tree.predict(("v0", "w0")) == "benign"

    def test_leaf_count_and_depth(self):
        instances = [
            _inst(("a", "x"), "benign"),
            _inst(("a", "y"), "benign"),
            _inst(("b", "x"), "malicious"),
            _inst(("b", "y"), "malicious"),
        ] * 5
        tree = DecisionTree(CAT2).fit(instances)
        assert tree.depth() == 1
        assert tree.leaf_count() == 2


class TestSubtreeErrors:
    def test_leaf_error_estimate(self):
        leaf = make_leaf(
            [_inst(("a", "x"), "benign")] * 9 + [_inst(("a", "x"), "malicious")]
        )
        assert leaf.errors == 1
        assert subtree_errors(leaf) > 1.0

    def test_undeveloped_flag(self):
        leaf = make_leaf([_inst(("a", "x"), "benign")], developed=False)
        assert not leaf.developed
        assert leaf.prediction == "benign"

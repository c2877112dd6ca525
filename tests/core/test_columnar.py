"""The columnar path must equal the scalar reference exactly.

The speedup claim of :mod:`repro.core.columnar` is only worth anything
if Tables XVI/XVII stay bit-identical, so these tests compare the
columnar path with ``classify`` and with the per-instance accounting of
:mod:`.scalar_reference`, decision for decision, on randomized rule/row
matrices (all three conflict policies), on edge cases the broadcasting
is most likely to get wrong, and on real learned rules over a synthetic
session.  The ``fp_rules`` tuple is compared as a *set*: the scalar
reference emits hash iteration order, the columnar path rule order.
"""

from __future__ import annotations

import random

import pytest

from repro.core import columnar
from repro.core.classifier import ConflictPolicy, RuleBasedClassifier
from repro.core.columnar import ColumnarRuleEvaluator, FeatureCodec
from repro.core.dataset import (
    BENIGN_CLASS,
    MALICIOUS_CLASS,
    Instance,
    TrainingSet,
    unknown_vectors,
)
from repro.core.evaluation import clear_rule_cache, learn_rules
from repro.core.rules import Condition, Rule, RuleSet
from repro.obs import metrics as obs_metrics

from .scalar_reference import scalar_evaluate

WIDTH = 4
VOCAB = ("alpha", "beta", "gamma", "delta")
POLICIES = list(ConflictPolicy)


def _condition(attribute: int, value: str) -> Condition:
    return Condition(feature=f"f{attribute}", attribute=attribute, value=value)


def _random_rules(rng: random.Random, count: int) -> RuleSet:
    rules = []
    for _ in range(count):
        attributes = rng.sample(range(WIDTH), rng.randint(1, WIDTH))
        conditions = tuple(
            _condition(attribute, rng.choice(VOCAB))
            for attribute in attributes
        )
        coverage = rng.randint(1, 50)
        rules.append(
            Rule(
                conditions=conditions,
                prediction=rng.choice((BENIGN_CLASS, MALICIOUS_CLASS)),
                coverage=coverage,
                errors=rng.randint(0, coverage),
            )
        )
    return RuleSet(rules)


def _random_rows(rng: random.Random, count: int):
    # "omega" never appears in any rule: rows carrying it exercise the
    # unseen-value branches of codec and mask compilation.
    values = VOCAB + ("omega",)
    return [
        tuple(rng.choice(values) for _ in range(WIDTH))
        for _ in range(count)
    ]


def _assert_same_decisions(scalar_decisions, fast_decisions):
    assert len(scalar_decisions) == len(fast_decisions)
    for scalar, fast in zip(scalar_decisions, fast_decisions):
        assert scalar.label == fast.label
        assert scalar.rejected == fast.rejected
        assert scalar.matched_rules == fast.matched_rules


def _assert_same_evaluation(scalar, fast):
    assert scalar.malicious_matched == fast.malicious_matched
    assert scalar.true_positives == fast.true_positives
    assert scalar.benign_matched == fast.benign_matched
    assert scalar.false_positives == fast.false_positives
    assert scalar.rejected == fast.rejected
    assert scalar.unmatched == fast.unmatched
    assert set(scalar.fp_rules) == set(fast.fp_rules)


class TestFeatureCodec:
    def test_interning_is_stable(self):
        codec = FeatureCodec()
        rows = [("a", "x"), ("b", "x"), ("a", "y")]
        codes = codec.encode_rows(rows)
        assert codes.shape == (3, 2)
        again = codec.encode_rows(rows)
        assert (codes == again).all()
        assert codec.code_of(0, "a") == codes[0, 0]
        assert codec.code_of(1, "y") == codes[2, 1]

    def test_version_bumps_only_on_growth(self):
        codec = FeatureCodec()
        codec.encode_rows([("a", "x")])
        version = codec.version
        codec.encode_rows([("a", "x")])
        assert codec.version == version
        codec.encode_rows([("a", "z")])
        assert codec.version == version + 1

    def test_values_compared_by_str(self):
        # Scalar Condition.matches compares str(actual) == str(value);
        # the codec must intern through the same lens.
        codec = FeatureCodec()
        codes = codec.encode_rows([(5,), ("5",)])
        assert codes[0, 0] == codes[1, 0]
        assert codec.code_of(0, 5) == codec.code_of(0, "5")

    def test_width_fixed_by_first_batch(self):
        codec = FeatureCodec()
        codec.encode_rows([("a", "b")])
        with pytest.raises(ValueError):
            codec.encode_rows([("a",)])
        assert codec.code_of(7, "a") is None


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_classify_batch_equals_scalar(self, seed, policy):
        rng = random.Random(seed)
        rules = _random_rules(rng, rng.randint(1, 20))
        rows = _random_rows(rng, rng.randint(1, 120))
        classifier = RuleBasedClassifier(rules, policy)
        _assert_same_decisions(
            [classifier.classify(row) for row in rows],
            classifier.classify_batch(rows),
        )

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_evaluate_equals_scalar(self, seed, policy):
        rng = random.Random(1000 + seed)
        rules = _random_rules(rng, rng.randint(1, 20))
        instances = [
            Instance(
                values=row,
                label=rng.choice((BENIGN_CLASS, MALICIOUS_CLASS)),
            )
            for row in _random_rows(rng, rng.randint(1, 120))
        ]
        classifier = RuleBasedClassifier(rules, policy)
        _assert_same_evaluation(
            scalar_evaluate(classifier, instances),
            classifier.evaluate(instances),
        )


class TestEdgeCases:
    def test_empty_ruleset(self):
        classifier = RuleBasedClassifier(RuleSet([]))
        rows = [("alpha",) * WIDTH, ("beta",) * WIDTH]
        for decision in classifier.classify_batch(rows):
            assert decision.label is None
            assert not decision.matched
            assert not decision.rejected

    def test_empty_batch(self):
        # An empty first batch must not fix the row width: the next
        # real batch on the same classifier still matches the rules.
        rules = _random_rules(random.Random(3), 5)
        rows = _random_rows(random.Random(9), 30)
        classifier = RuleBasedClassifier(rules)
        assert classifier.classify_batch([]) == []
        assert classifier._evaluator.codec.width is None
        _assert_same_decisions(
            [classifier.classify(row) for row in rows],
            classifier.classify_batch(rows),
        )
        empty = RuleBasedClassifier(rules).evaluate([])
        assert empty.unmatched == empty.rejected == 0
        assert empty.fp_rules == ()

    def test_all_rows_unmatched(self):
        rules = RuleSet([_rule_for(("alpha", "alpha", "alpha", "alpha"))])
        rows = [("omega",) * WIDTH] * 10
        classifier = RuleBasedClassifier(rules)
        decisions = classifier.classify_batch(rows)
        assert all(not decision.matched for decision in decisions)
        result = classifier.evaluate(
            [Instance(values=row, label=BENIGN_CLASS) for row in rows]
        )
        assert result.unmatched == 10
        assert result.benign_matched == 0

    def test_default_rule_matches_everything(self):
        default = Rule(
            conditions=(), prediction=MALICIOUS_CLASS, coverage=5, errors=0
        )
        classifier = RuleBasedClassifier(RuleSet([default]))
        for decision in classifier.classify_batch(_random_rows(
            random.Random(4), 20
        )):
            assert decision.label == MALICIOUS_CLASS
            assert decision.matched_rules == (default,)

    def test_width_mismatches_raise(self):
        # Rows narrower than an earlier batch, and rules testing an
        # attribute past the row width, are errors, not silent walks.
        classifier = RuleBasedClassifier(_random_rules(random.Random(2), 4))
        classifier.classify_batch([("alpha",) * WIDTH])
        with pytest.raises(ValueError, match="row width mismatch"):
            classifier.classify_batch([("alpha",) * (WIDTH - 1)])
        too_wide = RuleSet([_rule_for(("alpha",) * (WIDTH + 1))])
        with pytest.raises(ValueError, match="outside"):
            RuleBasedClassifier(too_wide).classify_batch([("alpha",) * WIDTH])
        with pytest.raises(ValueError, match="outside"):
            RuleBasedClassifier(too_wide).evaluate(
                [Instance(values=("alpha",) * WIDTH, label=BENIGN_CLASS)]
            )

    def test_dedup_counts_unique_rows(self):
        rules = _random_rules(random.Random(5), 6)
        evaluator = ColumnarRuleEvaluator(rules.rules)
        rows = [("alpha",) * WIDTH, ("beta",) * WIDTH] * 50
        batch = evaluator.match_rows(rows)
        assert batch.n_rows == 100
        assert batch.n_unique == 2

    def test_empty_rule_list_takes_fast_path(self):
        evaluator = ColumnarRuleEvaluator([])
        batch = evaluator.match_rows([("alpha",) * WIDTH])
        assert batch.n_rows == 1
        assert batch.n_unique == 1
        assert batch.match.size == 0

    def test_single_row_batch(self):
        rules = _random_rules(random.Random(6), 8)
        row = ("alpha", "beta", "gamma", "delta")
        classifier = RuleBasedClassifier(rules)
        _assert_same_decisions(
            [classifier.classify(row)], classifier.classify_batch([row])
        )
        batch = ColumnarRuleEvaluator(rules.rules).match_rows([row])
        assert batch.n_rows == batch.n_unique == 1

    def test_vocab_version_bump_mid_session(self):
        # A batch carrying unseen values grows the codec vocabulary;
        # the evaluator must recompile its masks and keep matching the
        # scalar reference afterwards.
        rules = _random_rules(random.Random(7), 10)
        evaluator = ColumnarRuleEvaluator(rules.rules)
        first_rows = _random_rows(random.Random(8), 40)
        evaluator.match_rows(first_rows)
        version = evaluator.codec.version
        compiled = evaluator._compiled
        new_rows = [("nu",) * WIDTH, ("xi",) * WIDTH]
        evaluator.match_rows(first_rows + new_rows)
        assert evaluator.codec.version > version
        assert evaluator._compiled is not compiled
        assert evaluator._compiled.codec_version == evaluator.codec.version
        # Same mid-session growth through the public classifier: the
        # second batch's decisions still equal the scalar path.
        classifier = RuleBasedClassifier(rules)
        _assert_same_decisions(
            [classifier.classify(row) for row in first_rows],
            classifier.classify_batch(first_rows),
        )
        _assert_same_decisions(
            [classifier.classify(row) for row in new_rows],
            classifier.classify_batch(new_rows),
        )


def _rule_for(values, prediction=MALICIOUS_CLASS):
    return Rule(
        conditions=tuple(
            _condition(attribute, value)
            for attribute, value in enumerate(values)
        ),
        prediction=prediction,
        coverage=10,
        errors=0,
    )


class TestRealDataEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_month_pair_classification(self, small_session, policy):
        labeled = small_session.labeled
        rules, training = learn_rules(labeled, small_session.alexa, 0)
        selected = rules.select(0.001)
        train_shas = {i.sha1 for i in training.instances}
        test_set = TrainingSet.from_labeled(
            labeled.month_slice(1),
            small_session.alexa,
            exclude_sha1s=train_shas,
        )
        unknowns = unknown_vectors(
            labeled.month_slice(1),
            small_session.alexa,
            exclude_sha1s=set(labeled.month_slice(0).dataset.files),
        )
        unknown_rows = [vector.values for vector in unknowns.values()]
        classifier = RuleBasedClassifier(selected, policy)
        assert test_set.instances, "fixture must produce a test set"
        _assert_same_evaluation(
            scalar_evaluate(classifier, test_set.instances),
            classifier.evaluate(test_set.instances),
        )
        _assert_same_decisions(
            [classifier.classify(row) for row in unknown_rows],
            classifier.classify_batch(unknown_rows),
        )


class TestLearnRulesMemo:
    def test_memo_hit_and_isolation(self, small_session):
        labeled = small_session.labeled
        alexa = small_session.alexa
        clear_rule_cache()
        registry = obs_metrics.get_registry()
        first_rules, first_training = learn_rules(labeled, alexa, 0)
        before = registry.snapshot()["counters"].get("rules.cache_hits", 0)
        second_rules, second_training = learn_rules(labeled, alexa, 0)
        after = registry.snapshot()["counters"].get("rules.cache_hits", 0)
        assert after == before + 1
        assert first_rules.rules == second_rules.rules
        assert first_training.instances == second_training.instances
        # Returned objects are copies: mutating them must not poison
        # what the next caller receives.
        second_rules.rules.clear()
        second_training.instances.clear()
        third_rules, third_training = learn_rules(labeled, alexa, 0)
        assert third_rules.rules == first_rules.rules
        assert third_training.instances == first_training.instances

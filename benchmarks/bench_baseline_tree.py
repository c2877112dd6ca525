"""Baseline: a single pruned C4.5 decision tree vs the PART rule set.

Section VI-D argues for rule sets over monolithic decision trees: rules
can be filtered individually by training error (tau) and conflicting
evidence can be *rejected*, while a tree must classify everything with
all of its branches, including the inaccurate ones.
"""

from repro.core.classifier import RuleBasedClassifier
from repro.core.dataset import MALICIOUS_CLASS, TrainingSet
from repro.core.decision_tree import DecisionTree
from repro.core.evaluation import learn_rules
from repro.reporting import fmt_pct, render_table

from .common import save_artifact


def _tree_metrics(tree, instances):
    tp = fp = malicious = benign = 0
    for instance in instances:
        predicted = tree.predict(instance.values)
        if instance.label == MALICIOUS_CLASS:
            malicious += 1
            if predicted == MALICIOUS_CLASS:
                tp += 1
        else:
            benign += 1
            if predicted == MALICIOUS_CLASS:
                fp += 1
    return (
        tp / malicious if malicious else 0.0,
        fp / benign if benign else 0.0,
        malicious + benign,
    )


def test_baseline_tree(session):
    labeled = session.labeled
    training = TrainingSet.from_labeled(labeled.month_slice(0), session.alexa)
    train_shas = {i.sha1 for i in training.instances}
    test_set = TrainingSet.from_labeled(
        labeled.month_slice(1), session.alexa, exclude_sha1s=train_shas
    )

    tree = DecisionTree(training.schema).fit(training.instances)
    tree_tp, tree_fp, tree_total = _tree_metrics(tree, test_set.instances)

    rules, _ = learn_rules(labeled, session.alexa, 0)
    classifier = RuleBasedClassifier(rules.select(0.001))
    rule_result = classifier.evaluate(test_set.instances)

    table = render_table(
        ["Classifier", "TP", "FP", "classified"],
        [
            [
                "C4.5 decision tree (classifies everything)",
                fmt_pct(100 * tree_tp, 2),
                fmt_pct(100 * tree_fp, 2),
                tree_total,
            ],
            [
                "PART rules, tau=0.1%, conflicts rejected",
                fmt_pct(100 * rule_result.tp_rate, 2),
                fmt_pct(100 * rule_result.fp_rate, 2),
                rule_result.malicious_matched + rule_result.benign_matched,
            ],
        ],
        title=(
            "Baseline: monolithic decision tree vs selected rule set "
            "(train Jan, test Feb)"
        ),
    )
    save_artifact("baseline_tree", table)
    # The rule set abstains on the hard cases, the tree cannot.
    assert tree_total >= (
        rule_result.malicious_matched + rule_result.benign_matched
    )

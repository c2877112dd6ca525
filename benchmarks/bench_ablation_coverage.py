"""Ablation: minimum rule coverage vs precision (small-scale FP control)."""

from repro.core.classifier import RuleBasedClassifier
from repro.core.dataset import TrainingSet
from repro.core.evaluation import learn_rules
from repro.reporting import fmt_pct, render_table

from .common import save_artifact

COVERAGES = (1, 2, 3, 5, 10)


def _sweep(rules, test_set):
    rows = []
    for min_coverage in COVERAGES:
        selected = rules.select(0.001, min_coverage=min_coverage)
        result = RuleBasedClassifier(selected).evaluate(test_set.instances)
        rows.append((min_coverage, len(selected), result))
    return rows


def test_ablation_coverage(session):
    labeled = session.labeled
    rules, training = learn_rules(labeled, session.alexa, 0)
    train_shas = {i.sha1 for i in training.instances}
    test_set = TrainingSet.from_labeled(
        labeled.month_slice(1), session.alexa, exclude_sha1s=train_shas
    )
    rows = _sweep(rules, test_set)
    table = render_table(
        ["min coverage", "# rules", "TP", "FP", "matched"],
        [
            [cov, count, fmt_pct(100 * result.tp_rate, 2),
             fmt_pct(100 * result.fp_rate, 2),
             result.malicious_matched + result.benign_matched]
            for cov, count, result in rows
        ],
        title="Ablation: minimum rule coverage (train Jan, test Feb)",
    )
    save_artifact("ablation_coverage", table)
    assert rows[-1][2].fp_rate <= rows[0][2].fp_rate

"""Ablation: the tau error threshold vs TP/FP/coverage (Section VI-D)."""

from repro.core.classifier import RuleBasedClassifier
from repro.core.dataset import TrainingSet, unknown_vectors
from repro.core.evaluation import learn_rules
from repro.reporting import fmt_pct, render_table

from .common import save_artifact

TAUS = (0.0, 0.001, 0.005, 0.01, 0.05)


def _sweep(rules, test_set, unknowns):
    unknown_rows = [vector.values for vector in unknowns.values()]
    rows = []
    for tau in TAUS:
        selected = rules.select(tau)
        classifier = RuleBasedClassifier(selected)
        result = classifier.evaluate(test_set.instances)
        matched = sum(
            1 for decision in classifier.classify_batch(unknown_rows)
            if decision.classified
        )
        rows.append((tau, len(selected), result, matched))
    return rows


def test_ablation_tau(session):
    labeled = session.labeled
    rules, training = learn_rules(labeled, session.alexa, 0)
    train_shas = {i.sha1 for i in training.instances}
    test_set = TrainingSet.from_labeled(
        labeled.month_slice(1), session.alexa, exclude_sha1s=train_shas
    )
    unknowns = unknown_vectors(
        labeled.month_slice(1), session.alexa,
        exclude_sha1s=set(labeled.month_slice(0).dataset.files),
    )
    rows = _sweep(rules, test_set, unknowns)
    table = render_table(
        ["tau", "# rules", "TP", "FP", "unknowns matched"],
        [
            [fmt_pct(100 * tau, 2), count, fmt_pct(100 * result.tp_rate, 2),
             fmt_pct(100 * result.fp_rate, 2),
             fmt_pct(100 * matched / max(1, len(unknowns)), 1)]
            for tau, count, result, matched in rows
        ],
        title="Ablation: rule error threshold tau (train Jan, test Feb)",
    )
    save_artifact("ablation_tau", table)
    # Higher tau admits more rules.
    counts = [count for _, count, _, _ in rows]
    assert counts == sorted(counts)

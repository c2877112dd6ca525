"""Ablation: conflict handling -- reject vs majority vs first match.

On labeled test samples conflicts are rare (the tau filter removes most
contradictory rules); the policies separate on *unknown* files, where
rejection trades coverage for trustworthiness (Section VI-D).
"""

from repro.core.classifier import ConflictPolicy, RuleBasedClassifier
from repro.core.dataset import TrainingSet, unknown_vectors
from repro.core.evaluation import learn_rules, validate_against_latent
from repro.reporting import fmt_pct, render_table

from .common import save_artifact


def _sweep(rules, test_set, unknowns):
    unknown_rows = [vector.values for vector in unknowns.values()]
    results = {}
    for policy in ConflictPolicy:
        classifier = RuleBasedClassifier(rules.select(0.001), policy)
        evaluation = classifier.evaluate(test_set.instances)
        decisions = dict(
            zip(unknowns, classifier.classify_batch(unknown_rows))
        )
        decided = {
            sha1: decision.label for sha1, decision in decisions.items()
        }
        rejected = sum(1 for d in decisions.values() if d.rejected)
        labeled = sum(1 for d in decisions.values() if d.classified)
        results[policy] = (evaluation, labeled, rejected, decided)
    return results


def test_ablation_conflicts(session):
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
    results = _sweep(rules, test_set, unknowns)
    rows = []
    for policy, (evaluation, labeled_count, rejected, decided) in (
        results.items()
    ):
        latent = validate_against_latent(session.world, decided)
        rows.append(
            [
                policy.value,
                fmt_pct(100 * evaluation.tp_rate, 2),
                fmt_pct(100 * evaluation.fp_rate, 2),
                labeled_count,
                rejected,
                f"{latent['agreement']:.3f}",
            ]
        )
    table = render_table(
        ["Policy", "TP", "FP", "unknowns labeled", "unknowns rejected",
         "latent agreement"],
        rows,
        title="Ablation: conflict policy (train Jan, test Feb, tau=0.1%)",
    )
    save_artifact("ablation_conflicts", table)
    reject = results[ConflictPolicy.REJECT]
    first = results[ConflictPolicy.FIRST_MATCH]
    # Rejection labels fewer unknowns but never more FPs.
    assert reject[1] <= first[1]
    assert reject[0].false_positives <= first[0].false_positives

"""Ablation: feature knockout -- learn rules without each feature."""

from repro.core.classifier import RuleBasedClassifier
from repro.core.dataset import TrainingSet
from repro.core.features import FEATURE_NAMES
from repro.core.part import PartLearner
from repro.core.dataset import Instance
from repro.reporting import fmt_pct, render_table

from .common import save_artifact

KNOCKOUTS = (None, "file_signer", "file_packer", "proc_type")


def _knockout_instances(instances, index):
    return [
        Instance(
            values=tuple(
                value for position, value in enumerate(instance.values)
                if position != index
            ),
            label=instance.label,
            sha1=instance.sha1,
        )
        for instance in instances
    ]


def _sweep(training, test_set):
    rows = []
    for knockout in KNOCKOUTS:
        if knockout is None:
            schema = training.schema
            train_instances = training.instances
            test_instances = test_set.instances
        else:
            index = FEATURE_NAMES.index(knockout)
            schema = tuple(
                name for name in training.schema if name != knockout
            )
            train_instances = _knockout_instances(training.instances, index)
            test_instances = _knockout_instances(test_set.instances, index)
        rules = PartLearner(schema).fit(train_instances)
        classifier = RuleBasedClassifier(rules.select(0.001))
        result = classifier.evaluate(test_instances)
        rows.append((knockout or "(none)", len(rules), result))
    return rows


def test_ablation_features(session):
    labeled = session.labeled
    training = TrainingSet.from_labeled(
        labeled.month_slice(0), session.alexa
    )
    train_shas = {i.sha1 for i in training.instances}
    test_set = TrainingSet.from_labeled(
        labeled.month_slice(1), session.alexa, exclude_sha1s=train_shas
    )
    rows = _sweep(training, test_set)
    table = render_table(
        ["Removed feature", "# rules", "TP", "FP", "matched malicious"],
        [
            [name, count, fmt_pct(100 * result.tp_rate, 2),
             fmt_pct(100 * result.fp_rate, 2), result.malicious_matched]
            for name, count, result in rows
        ],
        title="Ablation: feature knockout (train Jan, test Feb, tau=0.1%)",
    )
    save_artifact("ablation_features", table)
    baseline = rows[0][2]
    no_signer = rows[1][2]
    # Removing the file-signer feature cripples coverage (Section VII:
    # the signer appears in 75% of all rules).
    assert no_signer.malicious_matched < baseline.malicious_matched

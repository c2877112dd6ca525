"""Section VII evasion experiment: how the rule system degrades under
certificate churn, certificate theft, and signature stripping."""

import numpy as np

from repro.core.classifier import RuleBasedClassifier
from repro.core.evasion import (
    match_rate,
    resign_fresh,
    resign_stolen,
    strip_signatures,
)
from repro.core.evaluation import learn_rules
from repro.core.features import FeatureExtractor
from repro.labeling.labels import FileLabel
from repro.reporting import fmt_pct, render_table

from .common import save_artifact


def _malicious_test_vectors(session):
    labeled = session.labeled.month_slice(1)
    extractor = FeatureExtractor(labeled, session.alexa)
    return extractor.extract_all(labels=[FileLabel.MALICIOUS])


def _benign_exclusive_signers(session):
    from repro.analysis.signers import exclusive_signers

    return [name for name, _ in exclusive_signers(session.labeled).benign]


def _sweep(classifier, vectors, benign_signers):
    rng = np.random.default_rng(99)
    scenarios = {
        "original": vectors,
        "fresh certificate per file": resign_fresh(vectors, rng, 1),
        "fresh certificate per 50 files": resign_fresh(vectors, rng, 50),
        "stolen benign certificates": resign_stolen(
            vectors, rng, benign_signers
        ),
        "signatures stripped": strip_signatures(vectors),
    }
    return {
        name: match_rate(classifier, modified.values())
        for name, modified in scenarios.items()
    }


def test_evasion(session):
    rules, _ = learn_rules(session.labeled, session.alexa, 0)
    classifier = RuleBasedClassifier(rules.select(0.001))
    vectors = _malicious_test_vectors(session)
    benign_signers = _benign_exclusive_signers(session)
    results = _sweep(classifier, vectors, benign_signers)
    table = render_table(
        ["Attack", "matched", "labeled malicious", "rejected"],
        [
            [
                name,
                fmt_pct(100 * rates["matched"]),
                fmt_pct(100 * rates["malicious"]),
                fmt_pct(100 * rates["rejected"]),
            ]
            for name, rates in results.items()
        ],
        title=(
            "Section VII evasion: detection of February's malicious files "
            "under signer manipulation (rules trained on January)"
        ),
    )
    save_artifact("evasion_section7", table)
    original = results["original"]["malicious"]
    fresh = results["fresh certificate per file"]["malicious"]
    stripped = results["signatures stripped"]["malicious"]
    # Fresh per-file certificates defeat signer rules; stripping does not
    # (unsigned-file rules exist), matching the paper's argument.
    assert fresh < original
    assert stripped > fresh

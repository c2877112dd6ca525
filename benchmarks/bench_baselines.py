"""Related-work comparison (Section VIII): baselines vs the rule system,
broken down by file prevalence -- the long-tail argument, quantified."""

from repro.baselines import (
    PoloniumBaseline,
    PrevalenceBaseline,
    RuleSystemDetector,
    UrlReputationBaseline,
    evaluate_by_prevalence,
)
from repro.reporting import fmt_pct, render_table

from .common import save_artifact


def _compare(session):
    labeled = session.labeled
    train = labeled.month_slice(0)
    test = labeled.month_slice(1)
    train_shas = set(train.dataset.files)
    detectors = [
        PrevalenceBaseline().fit(train),
        UrlReputationBaseline().fit(train),
        PoloniumBaseline().fit(train),
        RuleSystemDetector(session.alexa).fit(train),
    ]
    return {
        detector.name: evaluate_by_prevalence(
            detector, test, exclude_sha1s=train_shas
        )
        for detector in detectors
    }


def test_baselines_by_prevalence(session):
    results = _compare(session)
    rows = []
    for name, buckets in results.items():
        for bucket in buckets:
            rows.append(
                [
                    name,
                    bucket.bucket,
                    bucket.malicious,
                    fmt_pct(100 * bucket.detection_rate),
                    fmt_pct(100 * bucket.fp_rate),
                    bucket.abstained,
                ]
            )
    table = render_table(
        ["Detector", "prevalence", "# malicious", "detection", "FP rate",
         "abstained"],
        rows,
        title=(
            "Section VIII comparison: detection by file prevalence "
            "(train Jan, test Feb)"
        ),
    )
    save_artifact("baselines_by_prevalence", table)

    def bucket(name, label):
        return next(b for b in results[name] if b.bucket == label)

    # The paper's argument: graph/URL reputation struggles at the long
    # tail, while the rule system keeps working on prevalence-1 files.
    rules_p1 = bucket("rule-system", "1")
    polonium_p1 = bucket("polonium", "1")
    assert rules_p1.detection_rate > polonium_p1.detection_rate
    url_rep = bucket("url-reputation", "1")
    assert rules_p1.fp_rate <= url_rep.fp_rate + 0.05

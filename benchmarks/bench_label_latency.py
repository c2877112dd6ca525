"""Ground-truth latency: why the paper re-queried VirusTotal two years on.

Section II-B queries VT close to the download time *and again almost two
years later*, because signatures take months to appear.  This bench
labels the same corpus at increasing query days and measures how the
label mix shifts -- the knowable fraction of the corpus grows as the AV
ecosystem catches up, and "likely malicious" files get promoted once a
trusted engine ships a signature.
"""

from repro.labeling.ground_truth import build_labeler
from repro.labeling.labels import FileLabel
from repro.reporting import fmt_pct, render_table

from .common import save_artifact

QUERY_DAYS = (60.0, 120.0, 240.0, 420.0, 730.0)


def _sweep(session):
    results = {}
    for day in QUERY_DAYS:
        labeler = build_labeler(session.world, session.dataset, query_day=day)
        labels = {
            sha1: labeler.label_hash(sha1) for sha1 in session.dataset.files
        }
        total = len(labels)
        results[day] = {
            label: sum(1 for value in labels.values() if value == label) / total
            for label in FileLabel
        }
    return results


def test_label_latency(session):
    results = _sweep(session)
    rows = [
        [
            f"{day:.0f}",
            fmt_pct(100 * mix[FileLabel.MALICIOUS]),
            fmt_pct(100 * mix[FileLabel.LIKELY_MALICIOUS]),
            fmt_pct(100 * mix[FileLabel.BENIGN]),
            fmt_pct(100 * mix[FileLabel.LIKELY_BENIGN]),
            fmt_pct(100 * mix[FileLabel.UNKNOWN]),
        ]
        for day, mix in results.items()
    ]
    table = render_table(
        ["query day", "malicious", "likely mal.", "benign", "likely ben.",
         "unknown"],
        rows,
        title=(
            "Ground-truth latency: label mix vs VirusTotal query day "
            "(Section II-B's two-year re-query)"
        ),
    )
    save_artifact("label_latency_section2b", table)
    malicious = [mix[FileLabel.MALICIOUS] for mix in results.values()]
    assert malicious == sorted(malicious), "detections must only grow"
    # Even after two years the unknown mass dominates -- the paper's
    # headline finding.
    assert results[730.0][FileLabel.UNKNOWN] > 0.7

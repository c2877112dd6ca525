"""Rule drift across the six monthly training windows (beyond the paper).

Measures how much of the learned rule set persists month to month and
which rules are stable across the whole collection period -- the
curated-intelligence candidates for an analyst (Section VI-C's
interpretability workflow)."""

from repro.core.drift import drift_series, persistent_rules
from repro.core.evaluation import learn_rules
from repro.reporting import fmt_pct, render_table
from repro.telemetry.events import MONTH_NAMES

from .common import save_artifact


def _monthly_rulesets(session):
    return [
        learn_rules(session.labeled, session.alexa, month)[0].select(0.001)
        for month in range(6)
    ]


def test_rule_drift(session):
    rulesets = _monthly_rulesets(session)
    series = drift_series(rulesets)
    rows = [
        [
            f"{MONTH_NAMES[index][:3]} -> {MONTH_NAMES[index + 1][:3]}",
            report.previous_rules,
            report.current_rules,
            report.persisted,
            fmt_pct(100 * report.persistence_rate),
            fmt_pct(100 * report.novelty_rate),
        ]
        for index, report in enumerate(series)
    ]
    stable = persistent_rules(rulesets)
    table = render_table(
        ["Window", "prev rules", "curr rules", "persisted", "persistence",
         "novelty"],
        rows,
        title="Rule drift across monthly training windows (tau=0.1%)",
    )
    listing = "\n".join(
        f"  {rule.render()}  [coverage={rule.coverage}]"
        for rule in stable[:10]
    )
    save_artifact(
        "rule_drift",
        table
        + f"\n\n{len(stable)} rules learned in every month; top by "
        "coverage:\n" + listing,
    )
    assert all(report.persisted > 0 for report in series)
    assert stable, "some rules must be stable across all months"

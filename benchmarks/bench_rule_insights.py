"""Section VII: rule introspection -- feature usage, expansion, latent check."""

from repro.core.evaluation import validate_against_latent
from repro.reporting import fmt_pct, render_table

from .common import save_artifact


def _insights(session, evaluation):
    tau = 0.001
    usage = evaluation.feature_usage(tau)
    expansion = evaluation.label_expansion(tau)
    merged_decisions = {}
    for run in evaluation.runs_at(tau):
        merged_decisions.update(run.unknown_decisions)
    latent = validate_against_latent(session.world, merged_decisions)
    return usage, expansion, latent


def test_rule_insights(session, evaluation):
    usage, expansion, latent = _insights(session, evaluation)
    assert usage["file_signer"] == max(usage.values())

    usage_table = render_table(
        ["Feature", "Fraction of rules"],
        [[name, fmt_pct(100 * fraction)] for name, fraction in sorted(
            usage.items(), key=lambda item: -item[1]
        )],
        title="Section VII: feature usage in selected rules (tau=0.1%)",
    )
    lines = [
        usage_table,
        "",
        "Label expansion (Section VII):",
        f"  unknowns labeled: {expansion['labeled_unknowns']:.0f} of "
        f"{expansion['total_unknowns']:.0f} "
        f"({fmt_pct(100 * expansion['labeled_fraction'])}; paper 28.30%)",
        f"  expansion vs available ground truth: "
        f"{expansion['expansion_pct']:.0f}% (paper 233%)",
        f"  single-condition rules: "
        f"{fmt_pct(100 * evaluation.single_condition_fraction(0.001))} "
        "(paper 89%)",
        "",
        "Latent-truth validation of unknown labels (not possible in the paper):",
        f"  malicious precision: {latent['malicious_precision']:.3f}",
        f"  benign precision:    {latent['benign_precision']:.3f}",
        f"  overall agreement:   {latent['agreement']:.3f}",
    ]
    save_artifact("rule_insights_section7", "\n".join(lines))

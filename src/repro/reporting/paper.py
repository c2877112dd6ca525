"""Render every paper table and figure from a labeled dataset.

One function per experiment id; each calls the corresponding analysis and
formats the result in the layout of the paper, so benchmarks and examples
share identical output code.
"""

from __future__ import annotations

from .. import analysis
from ..core.evaluation import FullEvaluation
from ..core.features import FEATURE_NAMES
from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import FileLabel, MalwareType
from ..labeling.whitelists import AlexaService
from ..synth.calibration import TYPE_RESOLUTION_TARGETS
from .tables import (
    fmt_frac,
    fmt_int,
    fmt_pct,
    render_bars,
    render_multi_cdf,
    render_table,
)

#: Explanations of the Table XV features, for :func:`render_table_xv`.
_FEATURE_EXPLANATIONS = {
    "file_signer": "The entity who signed a downloaded file",
    "file_ca": "The certification authority in the file's chain of trust",
    "file_packer": "The packer software used to pack the file, if any",
    "proc_signer": "The signer of the process that downloaded the file",
    "proc_ca": "The CA of the downloading process",
    "proc_packer": "The packer of the downloading process",
    "proc_type": "The type of downloading process (browser, windows, ...)",
    "alexa_bin": "The Alexa rank of the download domain (binned)",
}


def render_table_i(labeled: LabeledDataset) -> str:
    """Table I: monthly summary of the collected data."""
    rows = []
    for row in analysis.monthly_summary(labeled):
        rows.append(
            [
                row.month,
                fmt_int(row.machines),
                fmt_int(row.events),
                fmt_int(row.processes),
                fmt_pct(row.proc_benign_pct),
                fmt_pct(row.proc_likely_benign_pct),
                fmt_pct(row.proc_malicious_pct),
                fmt_pct(row.proc_likely_malicious_pct),
                fmt_int(row.files),
                fmt_pct(row.file_benign_pct),
                fmt_pct(row.file_likely_benign_pct),
                fmt_pct(row.file_malicious_pct),
                fmt_pct(row.file_likely_malicious_pct),
                fmt_int(row.urls),
                fmt_pct(row.url_benign_pct),
                fmt_pct(row.url_malicious_pct),
            ]
        )
    return render_table(
        [
            "Month", "Machines", "Events",
            "Procs", "P.Ben", "P.LBen", "P.Mal", "P.LMal",
            "Files", "F.Ben", "F.LBen", "F.Mal", "F.LMal",
            "URLs", "U.Ben", "U.Mal",
        ],
        rows,
        title="Table I: Monthly summary of collected download events",
    )


def render_table_ii(labeled: LabeledDataset) -> str:
    """Table II: breakdown of malicious files per behavior type."""
    rows = [
        [row.mtype.value, fmt_pct(row.pct), row.description]
        for row in analysis.type_breakdown(labeled)
    ]
    return render_table(
        ["Type", "Total", "Description"],
        rows,
        title="Table II: Breakdown of downloaded malicious files per type",
    )


def render_fig_1(labeled: LabeledDataset) -> str:
    """Figure 1: distribution of malware families (top 25)."""
    distribution = analysis.family_distribution(labeled)
    chart = render_bars(
        distribution.top_families,
        title="Figure 1: Distribution of malware families (top 25)",
    )
    summary = (
        f"\n{distribution.total_families} families; "
        f"{fmt_pct(100 * distribution.unlabeled_fraction)} of samples "
        "without a family name"
    )
    return chart + summary


def render_fig_2(labeled: LabeledDataset) -> str:
    """Figure 2: prevalence of the downloaded software files (CCDF)."""
    report = analysis.prevalence_report(labeled)
    named = {}
    for label in (FileLabel.UNKNOWN, FileLabel.MALICIOUS, FileLabel.BENIGN):
        series = report.ccdf_series(label)
        named[label.value] = [
            (prevalence, fraction)
            for prevalence, fraction in series
            if prevalence in (1, 2, 3, 5, 10, 20, 50, 100)
        ]
    chart = render_multi_cdf(
        named,
        title=(
            "Figure 2: Prevalence CCDF -- fraction of files with "
            "prevalence >= x"
        ),
    )
    summary = (
        f"\nsingle-machine files: {fmt_frac(report.single_machine_fraction)} "
        f"(paper ~0.90); capped at sigma: "
        f"{fmt_frac(report.capped_fraction, 4)} (paper ~0.0025); machines "
        f"with >=1 unknown file: "
        f"{fmt_frac(report.machines_with_unknown_fraction)} (paper ~0.69)"
    )
    return chart + summary


def render_table_iii(labeled: LabeledDataset) -> str:
    """Table III: domains with highest download popularity."""
    popularity = analysis.domain_popularity(labeled)
    rows = []
    for index in range(len(popularity.overall)):
        row = []
        for column in (popularity.overall, popularity.benign,
                       popularity.malicious):
            if index < len(column):
                row.extend([column[index][0], fmt_int(column[index][1])])
            else:
                row.extend(["", ""])
        rows.append(row)
    return render_table(
        ["Overall", "#mach", "Benign", "#mach", "Malicious", "#mach"],
        rows,
        title="Table III: Domains with highest download popularity",
    )


def render_table_iv(labeled: LabeledDataset) -> str:
    """Table IV: number of files served per domain."""
    report = analysis.files_per_domain(labeled)
    rows = []
    for index in range(max(len(report.benign), len(report.malicious))):
        row = []
        for column in (report.benign, report.malicious):
            if index < len(column):
                row.extend([column[index][0], fmt_int(column[index][1])])
            else:
                row.extend(["", ""])
        rows.append(row)
    table = render_table(
        ["Benign domain", "#files", "Malicious domain", "#files"],
        rows,
        title="Table IV: Number of files served per domain (top 10)",
    )
    return table + (
        f"\ndomains serving both benign and malicious files: "
        f"{len(report.shared_domains)}"
    )


def render_table_v(labeled: LabeledDataset) -> str:
    """Table V: popular download domains per type of malicious file."""
    per_type = analysis.domains_per_type(labeled, n=5)
    blocks = []
    for mtype in (MalwareType.BOT, MalwareType.DROPPER, MalwareType.ADWARE,
                  MalwareType.FAKEAV):
        entries = per_type.get(mtype, [])
        rows = [[domain, fmt_int(count)] for domain, count in entries]
        blocks.append(
            render_table(
                [f"{mtype.value} domain", "#files"],
                rows or [["(none)", "0"]],
            )
        )
    return (
        "Table V: Popular download domains per type of malicious file\n"
        + "\n".join(blocks)
    )


def render_fig_3(labeled: LabeledDataset, alexa: AlexaService) -> str:
    """Figure 3: Alexa ranks of benign vs malicious hosting domains."""
    distribution = analysis.alexa_rank_distribution(labeled, alexa)
    named = {
        "benign": distribution.cdf(FileLabel.BENIGN),
        "malicious": distribution.cdf(FileLabel.MALICIOUS),
    }
    chart = render_multi_cdf(
        named,
        title=(
            "Figure 3: CDF of Alexa ranks of domains hosting benign vs "
            "malicious files (over ranked domains)"
        ),
        x_format=lambda x: fmt_int(int(x)),
    )
    extra = "".join(
        f"\nunranked fraction ({label.value}): "
        f"{fmt_frac(distribution.unranked_fraction.get(label, 0.0))}"
        for label in (FileLabel.BENIGN, FileLabel.MALICIOUS)
    )
    return chart + extra


def render_fig_6(labeled: LabeledDataset, alexa: AlexaService) -> str:
    """Figure 6: Alexa ranks of domains hosting unknown files."""
    distribution = analysis.alexa_rank_distribution(labeled, alexa)
    chart = render_multi_cdf(
        {"unknown": distribution.cdf(FileLabel.UNKNOWN)},
        title=(
            "Figure 6: CDF of Alexa ranks of domains hosting unknown "
            "files (over ranked domains)"
        ),
        x_format=lambda x: fmt_int(int(x)),
    )
    unranked = distribution.unranked_fraction.get(FileLabel.UNKNOWN, 0.0)
    return chart + f"\nunranked fraction (unknown): {fmt_frac(unranked)}"


def render_table_vi(labeled: LabeledDataset) -> str:
    """Table VI: percentage of signed files per type."""
    rows = [
        [
            row.group,
            fmt_int(row.files),
            fmt_pct(row.signed_pct),
            fmt_int(row.browser_files),
            fmt_pct(row.browser_signed_pct),
        ]
        for row in analysis.signed_percentages(labeled)
    ]
    return render_table(
        ["Type", "# Files", "Signed", "Browser files", "Signed"],
        rows,
        title=(
            "Table VI: Percentage of signed benign, unknown and malicious "
            "files (overall and from browsers)"
        ),
    )


def render_table_vii(labeled: LabeledDataset) -> str:
    """Table VII: common signers among malicious file types."""
    rows_data, total = analysis.signer_counts(labeled)
    rows = [
        [row.mtype.value, fmt_int(row.signers), fmt_int(row.common_with_benign)]
        for row in rows_data
    ]
    rows.append(["Total", fmt_int(total.signers),
                 fmt_int(total.common_with_benign)])
    return render_table(
        ["Type", "# Signers", "In common with benign"],
        rows,
        title="Table VII: Common signers among malicious file types",
    )


def render_table_viii(labeled: LabeledDataset) -> str:
    """Table VIII: top signers of different file types."""
    rows = [
        [
            row.group,
            ", ".join(row.top) or "(none)",
            ", ".join(row.top_common_with_benign) or "(none)",
            ", ".join(row.top_exclusive) or "(none)",
        ]
        for row in analysis.top_signers(labeled)
    ]
    return render_table(
        ["Type", "Top signers", "Top common with benign", "Top exclusive"],
        rows,
        title="Table VIII: Top signers of different file types",
    )


def render_table_ix(labeled: LabeledDataset) -> str:
    """Table IX: top exclusively-benign / exclusively-malicious signers."""
    report = analysis.exclusive_signers(labeled)
    rows = []
    for index in range(max(len(report.benign), len(report.malicious))):
        row = []
        for column in (report.benign, report.malicious):
            if index < len(column):
                row.extend([column[index][0], fmt_int(column[index][1])])
            else:
                row.extend(["", ""])
        rows.append(row)
    return render_table(
        ["Benign-only signer", "# Files", "Malicious-only signer", "# Files"],
        rows,
        title=(
            "Table IX: Top signers that exclusively signed benign or "
            "malicious files"
        ),
    )


def render_fig_4(labeled: LabeledDataset, top: int = 15) -> str:
    """Figure 4: common signers between malicious and benign files."""
    scatter = analysis.shared_signer_scatter(labeled)[:top]
    rows = [
        [signer, fmt_int(malicious), fmt_int(benign)]
        for signer, malicious, benign in scatter
    ]
    return render_table(
        ["Shared signer", "# Malicious files", "# Benign files"],
        rows,
        title=(
            "Figure 4: Common signers between malicious and benign files "
            "(top shared signers)"
        ),
    )


def render_type_resolution(labeled: LabeledDataset) -> str:
    """Section II-C: how each malware type label was resolved."""
    fractions = labeled.type_resolution_fractions
    lines = ["Section II-C: Type resolution"]
    for name, paper in TYPE_RESOLUTION_TARGETS.items():
        lines.append(
            f"{name + ':':<13}{fmt_pct(100 * fractions[name])} "
            f"(paper {100 * paper:.0f}%)"
        )
    return "\n".join(lines)


def render_packers(labeled: LabeledDataset) -> str:
    """Section IV-C packer statistics."""
    report = analysis.packer_report(labeled)
    lines = [
        "Section IV-C: Packers",
        f"benign packed:    {fmt_pct(report.benign_packed_pct)} (paper 54%)",
        f"malicious packed: {fmt_pct(report.malicious_packed_pct)} (paper 58%)",
        f"distinct packers: {report.total_packers} (paper 69)",
        f"shared packers:   {len(report.shared_packers)} (paper 35)",
        "shared examples:  "
        + ", ".join(sorted(report.shared_packers)[:6]),
        "malicious-only examples: "
        + ", ".join(sorted(report.malicious_only_packers)[:6]),
    ]
    return "\n".join(lines)


def _behavior_table(rows, title: str) -> str:
    table_rows = []
    for row in rows:
        mix = ", ".join(
            f"{mtype.value}={100 * fraction:.1f}%"
            for mtype, fraction in sorted(
                row.type_mix.items(), key=lambda item: -item[1]
            )[:5]
        )
        table_rows.append(
            [
                row.group,
                fmt_int(row.processes),
                fmt_int(row.machines),
                fmt_int(row.unknown_files),
                fmt_int(row.benign_files),
                fmt_int(row.malicious_files),
                fmt_pct(row.infected_machine_pct),
                mix,
            ]
        )
    return render_table(
        ["Group", "Procs", "Machines", "Unknown", "Benign", "Malicious",
         "Infected", "Top malicious types"],
        table_rows,
        title=title,
    )


def render_table_x(labeled: LabeledDataset) -> str:
    """Table X: download behavior of benign processes per category."""
    rows = list(analysis.benign_process_behavior(labeled).values())
    return _behavior_table(
        rows, "Table X: Download behavior of benign processes"
    )


def render_table_xi(labeled: LabeledDataset) -> str:
    """Table XI: download behavior of benign browser processes."""
    rows = list(analysis.browser_behavior(labeled).values())
    return _behavior_table(
        rows, "Table XI: Download behavior of benign browser processes"
    )


def render_table_xii(labeled: LabeledDataset) -> str:
    """Table XII: download behavior of malicious process types."""
    rows = list(analysis.malicious_process_behavior(labeled).values())
    return _behavior_table(
        rows, "Table XII: Download behavior of malicious processes"
    )


def render_fig_5(labeled: LabeledDataset) -> str:
    """Figure 5: time delta between source download and other malware."""
    report = analysis.infection_timing(labeled)
    named = {source: report.cdf(source) for source in analysis.SOURCES}
    chart = render_multi_cdf(
        named,
        title=(
            "Figure 5: CDF of days between downloading "
            "benign/adware/pup/dropper and other malware"
        ),
        x_format=lambda x: f"{x:.0f}d",
    )
    counts = ", ".join(
        f"{source}: n={len(report.deltas[source])}"
        for source in analysis.SOURCES
    )
    return chart + "\n" + counts


def render_table_xiii(labeled: LabeledDataset) -> str:
    """Table XIII: top 10 domains serving unknown files."""
    rows = [
        [domain, fmt_int(count)]
        for domain, count in analysis.unknown_download_domains(labeled)
    ]
    return render_table(
        ["Domain", "# downloads"],
        rows,
        title="Table XIII: Top 10 download domains of unknown files",
    )


def render_table_xiv(labeled: LabeledDataset) -> str:
    """Table XIV: process categories downloading unknown files."""
    rows = [
        [row.group, fmt_int(row.unknown_downloads)]
        for row in analysis.unknown_download_processes(labeled)
    ]
    return render_table(
        ["Downloading process type", "# unknown files"],
        rows,
        title="Table XIV: Categories of processes downloading unknown files",
    )


def render_unknown_characteristics(labeled: LabeledDataset) -> str:
    """Section VI-A: profile of the unknown mass vs labeled classes."""
    report = analysis.unknown_characteristics(labeled)
    rows = []
    for label in (FileLabel.UNKNOWN, FileLabel.BENIGN, FileLabel.MALICIOUS):
        profile = report.profiles[label]
        rows.append(
            [
                label.value,
                fmt_int(profile.files),
                fmt_pct(100 * profile.signed_fraction),
                fmt_pct(100 * profile.packed_fraction),
                fmt_int(profile.median_size_bytes),
                f"{profile.mean_prevalence:.2f}",
            ]
        )
    table = render_table(
        ["Class", "# Files", "Signed", "Packed", "Median size",
         "Mean prevalence"],
        rows,
        title="Section VI-A: characteristics of unknown files",
    )
    extra = (
        f"\nsigned unknowns whose signer is malicious-exclusive: "
        f"{fmt_pct(100 * report.signer_overlap_with_malicious)}"
        f"\nsigned unknowns whose signer is benign-exclusive:    "
        f"{fmt_pct(100 * report.signer_overlap_with_benign)}"
        f"\nsigned unknowns with a never-labeled signer:         "
        f"{fmt_pct(100 * report.signer_unseen_fraction)}"
    )
    return table + extra


def render_table_xv() -> str:
    """Table XV: the eight classification features."""
    rows = [
        [name, _FEATURE_EXPLANATIONS[name]] for name in FEATURE_NAMES
    ]
    return render_table(
        ["Feature", "Explanation"],
        rows,
        title="Table XV: Features used by the rule-based classifier",
    )


def render_table_xvi(evaluation: FullEvaluation) -> str:
    """Table XVI: rules extracted per training month and tau."""
    rows = [
        [
            row.train_month,
            fmt_pct(100 * row.tau, 2),
            fmt_int(row.total_rules),
            fmt_int(row.selected_rules),
            fmt_int(row.benign_rules),
            fmt_int(row.malicious_rules),
        ]
        for row in evaluation.extraction_rows()
    ]
    return render_table(
        ["T_tr", "tau", "Overall # rules", "Selected", "# benign",
         "# malicious"],
        rows,
        title="Table XVI: Extracted rules per training month",
    )


def render_table_xvii(evaluation: FullEvaluation) -> str:
    """Table XVII: evaluation results and unknown-file classification."""
    rows = [
        [
            f"{row.train_month[:3]}-{row.test_month[:3]}",
            fmt_pct(100 * row.tau, 2),
            fmt_int(row.malicious_matched),
            fmt_pct(100 * row.tp_rate, 2),
            fmt_int(row.benign_matched),
            fmt_pct(100 * row.fp_rate, 2),
            fmt_int(row.fp_rule_count),
            fmt_int(row.unknown_total),
            fmt_pct(row.unknown_matched_pct, 2),
            fmt_int(row.unknown_malicious),
            fmt_int(row.unknown_benign),
        ]
        for row in evaluation.evaluation_rows()
    ]
    return render_table(
        ["T_tr-T_ts", "tau", "# malicious", "TP", "# benign", "FP",
         "# FP rules", "# unknowns", "matched", "unk->mal", "unk->ben"],
        rows,
        title=(
            "Table XVII: Rule evaluation and classification of unknown "
            "files (conflicts rejected)"
        ),
    )

"""Scalar reference implementations of every analysis output.

:mod:`repro.analysis` computes each paper table and figure once, as
NumPy group-bys over the shared columnar
:class:`~repro.analysis.frame.SessionFrame`.  This module keeps the
plain event-by-event loops those group-bys replaced, one function per
output with the product function's name and arguments, as the oracle
``test_frame_equivalence.py`` compares them against with ``==``.  It is
test code only: nothing in ``src/`` imports it.

:data:`__all__` lists exactly the reference functions; the equivalence
suite asserts it names every table function ``repro.analysis`` exports.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis import (
    TYPE_DESCRIPTIONS,
    AlexaRankDistribution,
    ClassProfile,
    DomainPopularity,
    ExclusiveSigners,
    FamilyDistribution,
    FilesPerDomain,
    InfectionTimingReport,
    MonthlySummaryRow,
    PackerReport,
    PrevalenceReport,
    ProcessBehaviorRow,
    SignedRateRow,
    SignerCountRow,
    SOURCES,
    TopSignersRow,
    TypeBreakdownRow,
    UnknownCharacteristics,
    UnknownDownloadsRow,
    top_n,
)
from repro.analysis.infection import DEFAULT_GRID
from repro.analysis.processes import _group_of_category
from repro.analysis.summary import _pct
from repro.labeling.ground_truth import LabeledDataset
from repro.labeling.labels import (
    FIG5_EXCLUDED_TYPES,
    Browser,
    FileLabel,
    MalwareType,
    ProcessCategory,
    UrlLabel,
    browser_from_name,
    categorize_process_name,
)
from repro.labeling.whitelists import AlexaService
from repro.telemetry.events import MONTH_NAMES, NUM_MONTHS, DownloadEvent

__all__ = [
    "alexa_rank_distribution",
    "benign_process_behavior",
    "browser_behavior",
    "domain_popularity",
    "domains_per_type",
    "exclusive_signers",
    "family_distribution",
    "files_per_domain",
    "infection_timing",
    "malicious_process_behavior",
    "monthly_summary",
    "packer_report",
    "prevalence_report",
    "shared_signer_scatter",
    "signed_percentages",
    "signer_counts",
    "top_signers",
    "type_breakdown",
    "unknown_characteristics",
    "unknown_download_domains",
    "unknown_download_processes",
]


# ----------------------------------------------------------------------
# Shared iteration helpers
# ----------------------------------------------------------------------


def labeled_events(
    labeled: LabeledDataset,
) -> Iterator[Tuple[DownloadEvent, FileLabel]]:
    """Each event paired with its downloaded file's label."""
    file_labels = labeled.file_labels
    for event in labeled.dataset.events:
        yield event, file_labels[event.file_sha1]


def benign_process_shas(labeled: LabeledDataset) -> Set[str]:
    """Hashes of *known benign* processes (whitelist-matched).

    Section V-A restricts the process-behaviour measurements to processes
    labeled benign, so that malware masquerading under a browser's file
    name does not pollute the per-category statistics.
    """
    return {
        sha
        for sha, label in labeled.process_labels.items()
        if label == FileLabel.BENIGN
    }


def top_n_by_size(index: Dict[str, Set[str]], n: int) -> List[Tuple[str, int]]:
    """Top-``n`` keys of a grouped index by distinct-value count."""
    return top_n({key: len(values) for key, values in index.items()}, n)


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------


def _label_pcts(labels: Dict[str, FileLabel], shas) -> Dict[FileLabel, float]:
    total = len(shas)
    counts: Dict[FileLabel, int] = {label: 0 for label in FileLabel}
    for sha in shas:
        counts[labels[sha]] += 1
    return {label: _pct(count, total) for label, count in counts.items()}


def _summarize(labeled: LabeledDataset, events, month: str) -> MonthlySummaryRow:
    machines = {event.machine_id for event in events}
    files = {event.file_sha1 for event in events}
    processes = {event.process_sha1 for event in events}
    urls = {event.url for event in events}

    file_pcts = _label_pcts(labeled.file_labels, files)
    proc_pcts = _label_pcts(labeled.process_labels, processes)
    url_benign = sum(
        1 for url in urls if labeled.url_labels[url] == UrlLabel.BENIGN
    )
    url_malicious = sum(
        1 for url in urls if labeled.url_labels[url] == UrlLabel.MALICIOUS
    )
    return MonthlySummaryRow(
        month=month,
        machines=len(machines),
        events=len(events),
        processes=len(processes),
        proc_benign_pct=proc_pcts[FileLabel.BENIGN],
        proc_likely_benign_pct=proc_pcts[FileLabel.LIKELY_BENIGN],
        proc_malicious_pct=proc_pcts[FileLabel.MALICIOUS],
        proc_likely_malicious_pct=proc_pcts[FileLabel.LIKELY_MALICIOUS],
        files=len(files),
        file_benign_pct=file_pcts[FileLabel.BENIGN],
        file_likely_benign_pct=file_pcts[FileLabel.LIKELY_BENIGN],
        file_malicious_pct=file_pcts[FileLabel.MALICIOUS],
        file_likely_malicious_pct=file_pcts[FileLabel.LIKELY_MALICIOUS],
        urls=len(urls),
        url_benign_pct=_pct(url_benign, len(urls)),
        url_malicious_pct=_pct(url_malicious, len(urls)),
    )


def monthly_summary(labeled: LabeledDataset) -> List[MonthlySummaryRow]:
    """Table I: one row per month plus an "Overall" row."""
    rows = [
        _summarize(labeled, labeled.dataset.events_by_month[month],
                   MONTH_NAMES[month])
        for month in range(NUM_MONTHS)
    ]
    rows.append(_summarize(labeled, labeled.dataset.events, "Overall"))
    return rows


# ----------------------------------------------------------------------
# Figure 1, Table II
# ----------------------------------------------------------------------


def family_distribution(
    labeled: LabeledDataset, top: int = 25
) -> FamilyDistribution:
    """Figure 1: top families among malicious files by sample count."""
    counter: Counter = Counter()
    unlabeled = 0
    for family in labeled.file_families.values():
        if family is None:
            unlabeled += 1
        else:
            counter[family] += 1
    return FamilyDistribution(
        top_families=sorted(
            counter.items(), key=lambda item: (-item[1], item[0])
        )[:top],
        total_families=len(counter),
        labeled_samples=sum(counter.values()),
        unlabeled_samples=unlabeled,
    )


def type_breakdown(labeled: LabeledDataset) -> List[TypeBreakdownRow]:
    """Table II: malicious downloaded files per behavior type."""
    counter: Counter = Counter(
        extraction.mtype for extraction in labeled.file_types.values()
    )
    total = sum(counter.values())
    rows = [
        TypeBreakdownRow(
            mtype=mtype,
            count=counter[mtype],
            pct=100.0 * counter[mtype] / total if total else 0.0,
            description=TYPE_DESCRIPTIONS[mtype],
        )
        for mtype in MalwareType
    ]
    rows.sort(key=lambda row: -row.count)
    return rows


# ----------------------------------------------------------------------
# Figure 2
# ----------------------------------------------------------------------


def prevalence_report(
    labeled: LabeledDataset, sigma: int = 20
) -> PrevalenceReport:
    """Figure 2 and the Section IV-A prevalence figures."""
    prevalence = labeled.dataset.file_prevalence
    by_label: Dict[FileLabel, Counter] = {label: Counter() for label in FileLabel}
    single = 0
    capped = 0
    for sha1, count in prevalence.items():
        by_label[labeled.file_labels[sha1]][count] += 1
        if count == 1:
            single += 1
        if count >= sigma:
            capped += 1
    total = len(prevalence)

    unknown_machines = {
        event.machine_id
        for event in labeled.dataset.events
        if labeled.file_labels[event.file_sha1] == FileLabel.UNKNOWN
    }
    machine_total = len(labeled.dataset.machine_ids)

    single_by_label = {}
    for label, counts in by_label.items():
        label_total = sum(counts.values())
        single_by_label[label] = (
            counts[1] / label_total if label_total else 0.0
        )

    return PrevalenceReport(
        distribution_by_label=by_label,
        single_machine_fraction=single / total if total else 0.0,
        single_machine_fraction_by_label=single_by_label,
        capped_fraction=capped / total if total else 0.0,
        machines_with_unknown_fraction=(
            len(unknown_machines) / machine_total if machine_total else 0.0
        ),
    )


# ----------------------------------------------------------------------
# Tables III/IV/V/XIII, Figures 3/6
# ----------------------------------------------------------------------


def domain_popularity(labeled: LabeledDataset, n: int = 10) -> DomainPopularity:
    """Table III: top-``n`` domains by unique downloading machines."""
    machines_overall: Dict[str, Set[str]] = defaultdict(set)
    machines_benign: Dict[str, Set[str]] = defaultdict(set)
    machines_malicious: Dict[str, Set[str]] = defaultdict(set)
    for event, label in labeled_events(labeled):
        domain = event.e2ld
        machines_overall[domain].add(event.machine_id)
        if label == FileLabel.BENIGN:
            machines_benign[domain].add(event.machine_id)
        elif label == FileLabel.MALICIOUS:
            machines_malicious[domain].add(event.machine_id)

    return DomainPopularity(
        overall=top_n_by_size(machines_overall, n),
        benign=top_n_by_size(machines_benign, n),
        malicious=top_n_by_size(machines_malicious, n),
    )


def files_per_domain(labeled: LabeledDataset, n: int = 10) -> FilesPerDomain:
    """Table IV: top-``n`` domains by number of unique files served."""
    benign_files: Dict[str, Set[str]] = defaultdict(set)
    malicious_files: Dict[str, Set[str]] = defaultdict(set)
    for event, label in labeled_events(labeled):
        if label == FileLabel.BENIGN:
            benign_files[event.e2ld].add(event.file_sha1)
        elif label == FileLabel.MALICIOUS:
            malicious_files[event.e2ld].add(event.file_sha1)
    return FilesPerDomain(
        benign=top_n_by_size(benign_files, n),
        malicious=top_n_by_size(malicious_files, n),
        shared_domains=set(benign_files) & set(malicious_files),
    )


def domains_per_type(
    labeled: LabeledDataset, n: int = 10
) -> Dict[MalwareType, List[Tuple[str, int]]]:
    """Table V: per malicious type, domains serving the most files."""
    files_by_type_domain: Dict[MalwareType, Dict[str, Set[str]]] = defaultdict(
        lambda: defaultdict(set)
    )
    for event in labeled.dataset.events:
        mtype = labeled.type_of(event.file_sha1)
        if mtype is None:
            continue
        files_by_type_domain[mtype][event.e2ld].add(event.file_sha1)
    return {
        mtype: top_n_by_size(domains, n)
        for mtype, domains in files_by_type_domain.items()
    }


def unknown_download_domains(
    labeled: LabeledDataset, n: int = 10
) -> List[Tuple[str, int]]:
    """Table XIII: top domains by number of unknown-file downloads."""
    downloads: Counter = Counter()
    for event, label in labeled_events(labeled):
        if label == FileLabel.UNKNOWN:
            downloads[event.e2ld] += 1
    return top_n(downloads, n)


def alexa_rank_distribution(
    labeled: LabeledDataset, alexa: AlexaService
) -> AlexaRankDistribution:
    """Figures 3 and 6: ranks of hosting domains per file class."""
    domains_by_label: Dict[FileLabel, Set[str]] = defaultdict(set)
    for event, label in labeled_events(labeled):
        domains_by_label[label].add(event.e2ld)
    ranks: Dict[FileLabel, List[int]] = {}
    unranked: Dict[FileLabel, float] = {}
    for label, domains in domains_by_label.items():
        found = [
            alexa.rank(domain) for domain in domains
            if alexa.rank(domain) is not None
        ]
        ranks[label] = sorted(found)  # type: ignore[arg-type]
        unranked[label] = 1.0 - len(found) / len(domains) if domains else 0.0
    return AlexaRankDistribution(ranks=ranks, unranked_fraction=unranked)


# ----------------------------------------------------------------------
# Tables VI-IX, Figure 4
# ----------------------------------------------------------------------


def _browser_downloaded_files(labeled: LabeledDataset) -> Set[str]:
    """Files with at least one browser-initiated download event."""
    result: Set[str] = set()
    for event in labeled.dataset.events:
        record = labeled.dataset.processes[event.process_sha1]
        if categorize_process_name(record.executable_name) == ProcessCategory.BROWSER:
            result.add(event.file_sha1)
    return result


def _rate_row(
    labeled: LabeledDataset,
    group: str,
    shas: Set[str],
    browser_files: Set[str],
) -> SignedRateRow:
    files = labeled.dataset.files
    signed = sum(1 for sha in shas if files[sha].is_signed)
    from_browser = shas & browser_files
    browser_signed = sum(1 for sha in from_browser if files[sha].is_signed)
    return SignedRateRow(
        group=group,
        files=len(shas),
        signed_pct=100.0 * signed / len(shas) if shas else 0.0,
        browser_files=len(from_browser),
        browser_signed_pct=(
            100.0 * browser_signed / len(from_browser) if from_browser else 0.0
        ),
    )


def signed_percentages(labeled: LabeledDataset) -> List[SignedRateRow]:
    """Table VI: signed fraction per malicious type and per label class."""
    browser_files = _browser_downloaded_files(labeled)
    by_type: Dict[MalwareType, Set[str]] = defaultdict(set)
    for sha, extraction in labeled.file_types.items():
        by_type[extraction.mtype].add(sha)
    rows = [
        _rate_row(labeled, mtype.value, by_type.get(mtype, set()), browser_files)
        for mtype in MalwareType
    ]
    rows.append(
        _rate_row(labeled, "benign",
                  labeled.files_with_label(FileLabel.BENIGN), browser_files)
    )
    rows.append(
        _rate_row(labeled, "unknown",
                  labeled.files_with_label(FileLabel.UNKNOWN), browser_files)
    )
    rows.append(
        _rate_row(labeled, "malicious",
                  labeled.files_with_label(FileLabel.MALICIOUS), browser_files)
    )
    return rows


def _signers_of(labeled: LabeledDataset, shas: Set[str]) -> Set[str]:
    files = labeled.dataset.files
    return {
        files[sha].signer for sha in shas if files[sha].signer is not None
    }


def signer_counts(
    labeled: LabeledDataset,
) -> Tuple[List[SignerCountRow], SignerCountRow]:
    """Table VII: distinct signers per type and overlap with benign."""
    benign_signers = _signers_of(
        labeled, labeled.files_with_label(FileLabel.BENIGN)
    )
    by_type: Dict[MalwareType, Set[str]] = defaultdict(set)
    for sha, extraction in labeled.file_types.items():
        by_type[extraction.mtype].add(sha)
    rows = []
    all_malicious_signers: Set[str] = set()
    for mtype in MalwareType:
        signers = _signers_of(labeled, by_type.get(mtype, set()))
        all_malicious_signers |= signers
        rows.append(
            SignerCountRow(
                mtype=mtype,
                signers=len(signers),
                common_with_benign=len(signers & benign_signers),
            )
        )
    total = SignerCountRow(
        mtype=None,
        signers=len(all_malicious_signers),
        common_with_benign=len(all_malicious_signers & benign_signers),
    )
    return rows, total


def _top_signer_names(counter: Counter, n: int = 3) -> List[str]:
    return [name for name, _ in sorted(
        counter.items(), key=lambda item: (-item[1], item[0])
    )[:n]]


def top_signers(labeled: LabeledDataset, n: int = 3) -> List[TopSignersRow]:
    """Table VIII: top signers per type, split common/exclusive vs benign."""
    files = labeled.dataset.files
    benign_shas = labeled.files_with_label(FileLabel.BENIGN)
    benign_signers = _signers_of(labeled, benign_shas)
    malicious_shas = labeled.files_with_label(FileLabel.MALICIOUS)

    groups: Dict[str, Set[str]] = {
        mtype.value: set() for mtype in MalwareType
    }
    for sha, extraction in labeled.file_types.items():
        groups[extraction.mtype.value].add(sha)
    groups["malicious (total)"] = set(malicious_shas)
    groups["benign"] = set(benign_shas)

    rows = []
    for group, shas in groups.items():
        counter: Counter = Counter()
        for sha in shas:
            signer = files[sha].signer
            if signer is not None:
                counter[signer] += 1
        if group == "benign":
            common = Counter(
                {s: c for s, c in counter.items()
                 if s in _signers_of(labeled, malicious_shas)}
            )
            exclusive = Counter(
                {s: c for s, c in counter.items()
                 if s not in _signers_of(labeled, malicious_shas)}
            )
        else:
            common = Counter(
                {s: c for s, c in counter.items() if s in benign_signers}
            )
            exclusive = Counter(
                {s: c for s, c in counter.items() if s not in benign_signers}
            )
        rows.append(
            TopSignersRow(
                group=group,
                top=_top_signer_names(counter, n),
                top_common_with_benign=_top_signer_names(common, n),
                top_exclusive=_top_signer_names(exclusive, n),
            )
        )
    return rows


def exclusive_signers(labeled: LabeledDataset, n: int = 10) -> ExclusiveSigners:
    """Table IX: top signers of only benign or only malicious files."""
    files = labeled.dataset.files
    benign_counter: Counter = Counter()
    malicious_counter: Counter = Counter()
    for sha in labeled.files_with_label(FileLabel.BENIGN):
        if files[sha].signer:
            benign_counter[files[sha].signer] += 1
    for sha in labeled.files_with_label(FileLabel.MALICIOUS):
        if files[sha].signer:
            malicious_counter[files[sha].signer] += 1
    benign_only = {
        signer: count for signer, count in benign_counter.items()
        if signer not in malicious_counter
    }
    malicious_only = {
        signer: count for signer, count in malicious_counter.items()
        if signer not in benign_counter
    }
    return ExclusiveSigners(
        benign=sorted(benign_only.items(), key=lambda i: (-i[1], i[0]))[:n],
        malicious=sorted(malicious_only.items(), key=lambda i: (-i[1], i[0]))[:n],
    )


def shared_signer_scatter(labeled: LabeledDataset) -> List[Tuple[str, int, int]]:
    """Figure 4: per shared signer, (name, #malicious files, #benign files)."""
    files = labeled.dataset.files
    benign_counter: Counter = Counter()
    malicious_counter: Counter = Counter()
    for sha in labeled.files_with_label(FileLabel.BENIGN):
        if files[sha].signer:
            benign_counter[files[sha].signer] += 1
    for sha in labeled.files_with_label(FileLabel.MALICIOUS):
        if files[sha].signer:
            malicious_counter[files[sha].signer] += 1
    shared = set(benign_counter) & set(malicious_counter)
    return sorted(
        (
            (signer, malicious_counter[signer], benign_counter[signer])
            for signer in shared
        ),
        key=lambda item: (-(item[1] + item[2]), item[0]),
    )


# ----------------------------------------------------------------------
# Section IV-C
# ----------------------------------------------------------------------


def _packed_pct(labeled: LabeledDataset, shas: Set[str]) -> float:
    files = labeled.dataset.files
    if not shas:
        return 0.0
    packed = sum(1 for sha in shas if files[sha].is_packed)
    return 100.0 * packed / len(shas)


def packer_report(labeled: LabeledDataset, top_n: int = 5) -> PackerReport:
    """Section IV-C packer statistics."""
    files = labeled.dataset.files
    benign = labeled.files_with_label(FileLabel.BENIGN)
    malicious = labeled.files_with_label(FileLabel.MALICIOUS)
    unknown = labeled.files_with_label(FileLabel.UNKNOWN)

    benign_packers = {
        files[sha].packer for sha in benign if files[sha].packer
    }
    malicious_packers = {
        files[sha].packer for sha in malicious if files[sha].packer
    }
    all_packers = {
        record.packer for record in files.values() if record.packer
    }

    per_type_counts: Dict[MalwareType, Counter] = defaultdict(Counter)
    for sha, extraction in labeled.file_types.items():
        packer = files[sha].packer
        if packer:
            per_type_counts[extraction.mtype][packer] += 1

    return PackerReport(
        benign_packed_pct=_packed_pct(labeled, benign),
        malicious_packed_pct=_packed_pct(labeled, malicious),
        unknown_packed_pct=_packed_pct(labeled, unknown),
        total_packers=len(all_packers),
        shared_packers=benign_packers & malicious_packers,
        benign_only_packers=benign_packers - malicious_packers,
        malicious_only_packers=malicious_packers - benign_packers,
        packers_per_type={
            mtype: sorted(counts.items(), key=lambda i: (-i[1], i[0]))[:top_n]
            for mtype, counts in per_type_counts.items()
        },
    )


# ----------------------------------------------------------------------
# Tables X/XI/XII/XIV
# ----------------------------------------------------------------------


def _behavior_row(
    labeled: LabeledDataset, group: str, process_shas: Set[str]
) -> ProcessBehaviorRow:
    machines: Set[str] = set()
    infected: Set[str] = set()
    files_by_label: Dict[FileLabel, Set[str]] = defaultdict(set)
    malicious_files: Set[str] = set()
    for event, label in labeled_events(labeled):
        if event.process_sha1 not in process_shas:
            continue
        machines.add(event.machine_id)
        files_by_label[label].add(event.file_sha1)
        if label == FileLabel.MALICIOUS:
            infected.add(event.machine_id)
            malicious_files.add(event.file_sha1)

    type_counts: Dict[MalwareType, int] = defaultdict(int)
    for sha in malicious_files:
        mtype = labeled.type_of(sha)
        if mtype is not None:
            type_counts[mtype] += 1
    total_typed = sum(type_counts.values())
    type_mix = {
        mtype: count / total_typed for mtype, count in type_counts.items()
    } if total_typed else {}

    return ProcessBehaviorRow(
        group=group,
        processes=len(process_shas),
        machines=len(machines),
        unknown_files=len(files_by_label[FileLabel.UNKNOWN]),
        benign_files=len(files_by_label[FileLabel.BENIGN]),
        malicious_files=len(malicious_files),
        infected_machine_pct=(
            100.0 * len(infected) / len(machines) if machines else 0.0
        ),
        type_mix=type_mix,
    )


def benign_process_behavior(
    labeled: LabeledDataset,
) -> Dict[ProcessCategory, ProcessBehaviorRow]:
    """Table X: download behavior of benign processes per category."""
    benign = benign_process_shas(labeled)
    active = {event.process_sha1 for event in labeled.dataset.events}
    by_category: Dict[ProcessCategory, Set[str]] = defaultdict(set)
    for sha in benign & active:
        record = labeled.dataset.processes[sha]
        by_category[categorize_process_name(record.executable_name)].add(sha)
    return {
        category: _behavior_row(labeled, category.value, shas)
        for category, shas in sorted(
            by_category.items(), key=lambda item: item[0].value
        )
    }


def browser_behavior(labeled: LabeledDataset) -> Dict[Browser, ProcessBehaviorRow]:
    """Table XI: download behavior per benign browser family."""
    benign = benign_process_shas(labeled)
    active = {event.process_sha1 for event in labeled.dataset.events}
    by_browser: Dict[Browser, Set[str]] = defaultdict(set)
    for sha in benign & active:
        record = labeled.dataset.processes[sha]
        browser = browser_from_name(record.executable_name)
        if browser is not None:
            by_browser[browser].add(sha)
    return {
        browser: _behavior_row(labeled, browser.value, shas)
        for browser, shas in sorted(
            by_browser.items(), key=lambda item: item[0].value
        )
    }


def malicious_process_behavior(
    labeled: LabeledDataset,
) -> Dict[Optional[MalwareType], ProcessBehaviorRow]:
    """Table XII: download behavior of malicious processes by type."""
    by_type: Dict[MalwareType, Set[str]] = defaultdict(set)
    all_malicious: Set[str] = set()
    active = {event.process_sha1 for event in labeled.dataset.events}
    for sha, label in labeled.process_labels.items():
        if label != FileLabel.MALICIOUS or sha not in active:
            continue
        all_malicious.add(sha)
        mtype = labeled.process_type_of(sha)
        if mtype is not None:
            by_type[mtype].add(sha)
    rows: Dict[Optional[MalwareType], ProcessBehaviorRow] = {
        mtype: _behavior_row(labeled, mtype.value, shas)
        for mtype, shas in sorted(
            by_type.items(), key=lambda item: item[0].value
        )
    }
    rows[None] = _behavior_row(labeled, "overall", all_malicious)
    return rows


def unknown_download_processes(
    labeled: LabeledDataset,
) -> List[UnknownDownloadsRow]:
    """Table XIV: unknown files downloaded per benign process category."""
    benign = benign_process_shas(labeled)
    counts: Dict[str, Set[str]] = defaultdict(set)
    for event, label in labeled_events(labeled):
        if label != FileLabel.UNKNOWN:
            continue
        if event.process_sha1 not in benign:
            continue
        record = labeled.dataset.processes[event.process_sha1]
        category = categorize_process_name(record.executable_name)
        counts[_group_of_category(category)].add(event.file_sha1)
    rows = [
        UnknownDownloadsRow(group=group, unknown_downloads=len(files))
        for group, files in sorted(
            counts.items(), key=lambda item: -len(item[1])
        )
    ]
    rows.append(
        UnknownDownloadsRow(
            group="total",
            unknown_downloads=sum(row.unknown_downloads for row in rows),
        )
    )
    return rows


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------


def _source_of(labeled: LabeledDataset, sha1: str) -> Optional[str]:
    label = labeled.file_labels[sha1]
    if label == FileLabel.BENIGN:
        return "benign"
    mtype = labeled.type_of(sha1)
    if mtype == MalwareType.ADWARE:
        return "adware"
    if mtype == MalwareType.PUP:
        return "pup"
    if mtype == MalwareType.DROPPER:
        return "dropper"
    return None


def _is_other_malware(labeled: LabeledDataset, sha1: str) -> bool:
    mtype = labeled.type_of(sha1)
    return mtype is not None and mtype not in FIG5_EXCLUDED_TYPES


def infection_timing(
    labeled: LabeledDataset, grid: Sequence[float] = DEFAULT_GRID
) -> InfectionTimingReport:
    """Figure 5: per machine and source class, first source download to
    the first later "other malware" download."""
    deltas: Dict[str, List[float]] = {source: [] for source in SOURCES}
    for machine_events in labeled.dataset.events_by_machine.values():
        first_source: Dict[str, float] = {}
        had_malicious_before: Dict[str, bool] = {}
        resolved: Dict[str, bool] = {source: False for source in SOURCES}
        seen_malicious = False
        for event in machine_events:
            sha1 = event.file_sha1
            if _is_other_malware(labeled, sha1):
                for source, start in first_source.items():
                    if resolved[source]:
                        continue
                    if source == "benign" and had_malicious_before[source]:
                        resolved[source] = True
                        continue
                    deltas[source].append(event.timestamp - start)
                    resolved[source] = True
            source = _source_of(labeled, sha1)
            if source is not None and source not in first_source:
                first_source[source] = event.timestamp
                had_malicious_before[source] = seen_malicious
            if labeled.file_labels[sha1] == FileLabel.MALICIOUS:
                seen_malicious = True
    return InfectionTimingReport(deltas=deltas, grid=grid)


# ----------------------------------------------------------------------
# Section VI-A
# ----------------------------------------------------------------------


def _profile(labeled: LabeledDataset, shas: Set[str]) -> ClassProfile:
    files = labeled.dataset.files
    prevalence = labeled.dataset.file_prevalence
    if not shas:
        return ClassProfile(0, 0.0, 0.0, 0, 0.0)
    signed = sum(1 for sha in shas if files[sha].is_signed)
    packed = sum(1 for sha in shas if files[sha].is_packed)
    sizes = [files[sha].size_bytes for sha in shas]
    return ClassProfile(
        files=len(shas),
        signed_fraction=signed / len(shas),
        packed_fraction=packed / len(shas),
        median_size_bytes=int(statistics.median(sizes)),
        mean_prevalence=sum(prevalence[sha] for sha in shas) / len(shas),
    )


def unknown_characteristics(labeled: LabeledDataset) -> UnknownCharacteristics:
    """Section VI-A: unknown files profiled against benign and malicious."""
    files = labeled.dataset.files
    by_label = {
        label: labeled.files_with_label(label)
        for label in (FileLabel.UNKNOWN, FileLabel.BENIGN, FileLabel.MALICIOUS)
    }
    profiles = {
        label: _profile(labeled, shas) for label, shas in by_label.items()
    }

    benign_signers = {
        files[sha].signer
        for sha in by_label[FileLabel.BENIGN]
        if files[sha].signer
    }
    malicious_signers = {
        files[sha].signer
        for sha in by_label[FileLabel.MALICIOUS]
        if files[sha].signer
    }
    malicious_only = malicious_signers - benign_signers
    benign_only = benign_signers - malicious_signers

    signed_unknowns = [
        files[sha].signer
        for sha in by_label[FileLabel.UNKNOWN]
        if files[sha].signer
    ]
    total_signed = len(signed_unknowns)
    if total_signed == 0:
        return UnknownCharacteristics(profiles, 0.0, 0.0, 0.0)
    overlap_malicious = sum(
        1 for signer in signed_unknowns if signer in malicious_only
    )
    overlap_benign = sum(
        1 for signer in signed_unknowns if signer in benign_only
    )
    unseen = sum(
        1
        for signer in signed_unknowns
        if signer not in malicious_signers and signer not in benign_signers
    )
    return UnknownCharacteristics(
        profiles=profiles,
        signer_overlap_with_malicious=overlap_malicious / total_signed,
        signer_overlap_with_benign=overlap_benign / total_signed,
        signer_unseen_fraction=unseen / total_signed,
    )

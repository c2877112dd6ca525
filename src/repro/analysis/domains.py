"""Download-URL and domain analyses -- Tables III/IV/V/XIII, Figures 3/6.

All aggregations are by effective second-level domain (e2LD), matching
Section IV-B.  Domain *popularity* is the number of unique machines that
downloaded a file from the domain.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import FileLabel, MalwareType
from ..labeling.whitelists import AlexaService
from .common import top_n
from .frame import (
    FILE_LABEL_CODE,
    FILE_LABELS,
    MALWARE_TYPES,
    code_count_dict,
    counts_per_code,
    session_frame,
    unique_pairs,
    unique_triples,
)


@dataclasses.dataclass(frozen=True)
class DomainPopularity:
    """Table III: most popular domains overall / for benign / malicious."""

    overall: List[Tuple[str, int]]
    benign: List[Tuple[str, int]]
    malicious: List[Tuple[str, int]]


def domain_popularity(labeled: LabeledDataset, n: int = 10) -> DomainPopularity:
    """Top-``n`` domains by unique downloading machines (Table III)."""
    frame = session_frame(labeled)
    labels = frame.event_file_label()
    n_machines = frame.n_machines
    n_domains = frame.n_domains

    def ranked(mask) -> List[Tuple[str, int]]:
        domains = frame.event_domain if mask is None else frame.event_domain[mask]
        machines = (
            frame.event_machine if mask is None else frame.event_machine[mask]
        )
        pair_domains, _ = unique_pairs(domains, machines, n_machines)
        counts = counts_per_code(pair_domains, n_domains)
        return top_n(code_count_dict(frame.domains, counts), n)

    return DomainPopularity(
        overall=ranked(None),
        benign=ranked(labels == FILE_LABEL_CODE[FileLabel.BENIGN]),
        malicious=ranked(labels == FILE_LABEL_CODE[FileLabel.MALICIOUS]),
    )


@dataclasses.dataclass(frozen=True)
class FilesPerDomain:
    """Table IV: domains serving the most distinct benign/malicious files."""

    benign: List[Tuple[str, int]]
    malicious: List[Tuple[str, int]]
    shared_domains: Set[str]


def files_per_domain(labeled: LabeledDataset, n: int = 10) -> FilesPerDomain:
    """Top-``n`` domains by number of unique files served (Table IV)."""
    frame = session_frame(labeled)
    labels = frame.event_file_label()
    n_files = frame.n_files
    n_domains = frame.n_domains

    def served(label: FileLabel):
        mask = labels == FILE_LABEL_CODE[label]
        pair_domains, _ = unique_pairs(
            frame.event_domain[mask], frame.event_file[mask], n_files
        )
        return counts_per_code(pair_domains, n_domains)

    benign_counts = served(FileLabel.BENIGN)
    malicious_counts = served(FileLabel.MALICIOUS)
    shared = np.nonzero((benign_counts > 0) & (malicious_counts > 0))[0]
    names = frame.domains.values
    return FilesPerDomain(
        benign=top_n(code_count_dict(frame.domains, benign_counts), n),
        malicious=top_n(code_count_dict(frame.domains, malicious_counts), n),
        shared_domains={names[code] for code in shared},
    )


def domains_per_type(
    labeled: LabeledDataset, n: int = 10
) -> Dict[MalwareType, List[Tuple[str, int]]]:
    """Table V: per malicious type, domains serving the most files."""
    frame = session_frame(labeled)
    types = frame.event_file_type()
    typed = types >= 0
    triple_types, triple_domains, _ = unique_triples(
        types[typed],
        frame.event_domain[typed],
        frame.event_file[typed],
        frame.n_domains,
        frame.n_files,
    )
    names = frame.domains.values
    result: Dict[MalwareType, List[Tuple[str, int]]] = {}
    for code in np.unique(triple_types):
        mask = triple_types == code
        counts = counts_per_code(triple_domains[mask], frame.n_domains)
        present = np.nonzero(counts)[0]
        result[MALWARE_TYPES[int(code)]] = top_n(
            {names[d]: int(counts[d]) for d in present}, n
        )
    return result


def unknown_download_domains(
    labeled: LabeledDataset, n: int = 10
) -> List[Tuple[str, int]]:
    """Table XIII: top domains by number of unknown-file downloads."""
    frame = session_frame(labeled)
    mask = frame.event_file_label() == FILE_LABEL_CODE[FileLabel.UNKNOWN]
    counts = counts_per_code(frame.event_domain[mask], frame.n_domains)
    return top_n(code_count_dict(frame.domains, counts), n)


@dataclasses.dataclass(frozen=True)
class AlexaRankDistribution:
    """Figures 3/6: Alexa ranks of domains hosting each file class.

    ``ranks`` holds the rank of every (domain, class) pair with a ranked
    domain; ``unranked_fraction`` is the share of hosting domains absent
    from the Alexa list.
    """

    ranks: Dict[FileLabel, List[int]]
    unranked_fraction: Dict[FileLabel, float]

    def cdf(self, label: FileLabel, grid: Optional[List[int]] = None):
        """CDF of ranks for one class on a log-spaced default grid."""
        from .common import cdf_points

        if grid is None:
            grid = [100, 1_000, 10_000, 100_000, 1_000_000]
        return cdf_points(self.ranks.get(label, []), grid)


def alexa_rank_distribution(
    labeled: LabeledDataset, alexa: AlexaService
) -> AlexaRankDistribution:
    """Ranks of hosting domains per file class (Figures 3 and 6)."""
    frame = session_frame(labeled, alexa)
    pair_labels, pair_domains = unique_pairs(
        frame.event_file_label(), frame.event_domain, frame.n_domains
    )
    ranks: Dict[FileLabel, List[int]] = {}
    unranked: Dict[FileLabel, float] = {}
    for code in np.unique(pair_labels):
        domains = pair_domains[pair_labels == code]
        domain_ranks = frame.domain_rank[domains]
        found = domain_ranks[domain_ranks >= 0]
        label = FILE_LABELS[int(code)]
        ranks[label] = sorted(int(rank) for rank in found)
        total = int(domains.shape[0])
        unranked[label] = (
            1.0 - int(found.shape[0]) / total if total else 0.0
        )
    return AlexaRankDistribution(ranks=ranks, unranked_fraction=unranked)

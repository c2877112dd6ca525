"""Measurement analyses: one module per section of the paper's evaluation.

=====================  ==================================================
Module                 Paper content
=====================  ==================================================
``summary``            Table I (monthly dataset summary)
``families``           Figure 1, Table II (families & types)
``prevalence``         Figure 2, Section IV-A
``domains``            Tables III/IV/V, Figures 3/6, and Table XIII
                       (top domains by *unknown-file* downloads)
``signers``            Tables VI-IX, Figure 4
``packers``            Section IV-C
``processes``          Tables X/XI/XII, and Table XIV (unknown files
                       per benign process category)
``infection``          Figure 5 (infection timing)
``unknowns``           Section VI-A (profile of the unknown mass)
``common``             Shared CDF and top-N result helpers
``frame``              The shared columnar :class:`SessionFrame` every
                       analysis runs on (built once per session)
=====================  ==================================================

Each table and figure has one implementation: NumPy group-bys over the
session's memoized :class:`SessionFrame`.  The event-by-event loops
they replaced live on only as a test oracle
(``tests/analysis/scalar_reference.py``), which the equivalence suite
compares against every output with ``==``.
"""

from .common import cdf_points, top_n
from .domains import (
    AlexaRankDistribution,
    DomainPopularity,
    FilesPerDomain,
    alexa_rank_distribution,
    domain_popularity,
    domains_per_type,
    files_per_domain,
    unknown_download_domains,
)
from .families import (
    TYPE_DESCRIPTIONS,
    FamilyDistribution,
    TypeBreakdownRow,
    family_distribution,
    type_breakdown,
)
from .frame import (
    DEFAULT_CHUNK_ROWS,
    SessionFrame,
    Vocabulary,
    build_frame,
    clear_frame_cache,
    session_frame,
)
from .infection import (
    SOURCES,
    InfectionTimingReport,
    infection_timing,
)
from .packers import PackerReport, packer_report
from .prevalence import PrevalenceReport, prevalence_report
from .processes import (
    ProcessBehaviorRow,
    UnknownDownloadsRow,
    benign_process_behavior,
    browser_behavior,
    malicious_process_behavior,
    unknown_download_processes,
)
from .signers import (
    ExclusiveSigners,
    SignedRateRow,
    SignerCountRow,
    TopSignersRow,
    exclusive_signers,
    shared_signer_scatter,
    signed_percentages,
    signer_counts,
    top_signers,
)
from .summary import MonthlySummaryRow, monthly_summary
from .unknowns import (
    ClassProfile,
    UnknownCharacteristics,
    unknown_characteristics,
)

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "SOURCES",
    "TYPE_DESCRIPTIONS",
    "AlexaRankDistribution",
    "DomainPopularity",
    "ExclusiveSigners",
    "FamilyDistribution",
    "FilesPerDomain",
    "InfectionTimingReport",
    "MonthlySummaryRow",
    "PackerReport",
    "PrevalenceReport",
    "ProcessBehaviorRow",
    "SessionFrame",
    "SignedRateRow",
    "SignerCountRow",
    "TopSignersRow",
    "ClassProfile",
    "TypeBreakdownRow",
    "UnknownCharacteristics",
    "UnknownDownloadsRow",
    "Vocabulary",
    "alexa_rank_distribution",
    "benign_process_behavior",
    "browser_behavior",
    "build_frame",
    "cdf_points",
    "clear_frame_cache",
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
    "session_frame",
    "shared_signer_scatter",
    "signed_percentages",
    "signer_counts",
    "top_n",
    "top_signers",
    "type_breakdown",
    "unknown_characteristics",
    "unknown_download_domains",
    "unknown_download_processes",
]

"""Malware family and type breakdowns -- Figure 1 and Table II.

Families come from the AVclass-style labeler, types from the AVType
extractor; both are already materialized on the
:class:`~repro.labeling.ground_truth.LabeledDataset`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import MalwareType
from .frame import FAMILY_NONE, MALWARE_TYPE_CODE, counts_per_code, session_frame

#: Table II's one-line descriptions, kept for the table renderer.
TYPE_DESCRIPTIONS: Dict[MalwareType, str] = {
    MalwareType.DROPPER: "First-stage malware that downloads further malware",
    MalwareType.PUP: "Potentially unwanted program / application",
    MalwareType.ADWARE: "Software that injects or displays unwanted ads",
    MalwareType.TROJAN: (
        "Generic name for malware that disguises as benign application "
        "and does not propagate"
    ),
    MalwareType.BANKER: (
        "Malware targeting online banking and specialized in stealing "
        "banking credentials"
    ),
    MalwareType.BOT: "Remotely controlled malware",
    MalwareType.FAKEAV: (
        "Malware distributed in form of concealed antivirus software"
    ),
    MalwareType.RANSOMWARE: (
        "Malware specialized in locking an endpoint (or files) and on "
        "asking for a ransom"
    ),
    MalwareType.WORM: (
        "Malware that auto-replicates and propagates through a victim "
        "network"
    ),
    MalwareType.SPYWARE: (
        "Malicious software specialized in monitoring and spying on the "
        "activity of users"
    ),
    MalwareType.UNDEFINED: "Generic or unclassified malicious software",
}


@dataclasses.dataclass(frozen=True)
class FamilyDistribution:
    """Figure 1 ingredients."""

    top_families: List[Tuple[str, int]]
    total_families: int
    labeled_samples: int
    unlabeled_samples: int

    @property
    def unlabeled_fraction(self) -> float:
        """Fraction of malicious samples without a family name."""
        total = self.labeled_samples + self.unlabeled_samples
        return self.unlabeled_samples / total if total else 0.0


def family_distribution(
    labeled: LabeledDataset, top: int = 25
) -> FamilyDistribution:
    """Figure 1: top families among malicious files by sample count."""
    frame = session_frame(labeled)
    column = frame.file_family
    counts = counts_per_code(
        column[column >= 0], len(frame.families)
    )
    unlabeled = int((column == FAMILY_NONE).sum())
    names = frame.families.values
    items = [
        (names[code], int(counts[code])) for code in np.nonzero(counts)[0]
    ]
    return FamilyDistribution(
        top_families=sorted(items, key=lambda item: (-item[1], item[0]))[:top],
        total_families=len(items),
        labeled_samples=int(counts.sum()),
        unlabeled_samples=unlabeled,
    )


@dataclasses.dataclass(frozen=True)
class TypeBreakdownRow:
    """One row of Table II."""

    mtype: MalwareType
    count: int
    pct: float
    description: str


def type_breakdown(labeled: LabeledDataset) -> List[TypeBreakdownRow]:
    """Table II: malicious downloaded files per behavior type."""
    column = session_frame(labeled).file_type
    counts = np.bincount(
        column[column >= 0], minlength=len(MalwareType)
    )
    total = int(counts.sum())
    rows = [
        TypeBreakdownRow(
            mtype=mtype,
            count=int(counts[MALWARE_TYPE_CODE[mtype]]),
            pct=(
                100.0 * int(counts[MALWARE_TYPE_CODE[mtype]]) / total
                if total
                else 0.0
            ),
            description=TYPE_DESCRIPTIONS[mtype],
        )
        for mtype in MalwareType
    ]
    rows.sort(key=lambda row: -row.count)
    return rows

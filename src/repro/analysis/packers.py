"""Packer analysis -- Section IV-C.

The paper reports that benign and malicious files are packed at nearly
the same rate (54% vs 58%), that about half of the 69 observed packers
are used by both populations, and that per-type packer breakdowns show no
discriminating signal.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Set, Tuple

import numpy as np

from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import FileLabel, MalwareType
from .frame import FILE_LABEL_CODE, MALWARE_TYPES, counts_per_code, session_frame


@dataclasses.dataclass(frozen=True)
class PackerReport:
    """Section IV-C packer statistics."""

    benign_packed_pct: float
    malicious_packed_pct: float
    unknown_packed_pct: float
    total_packers: int
    shared_packers: Set[str]
    benign_only_packers: Set[str]
    malicious_only_packers: Set[str]
    packers_per_type: Dict[MalwareType, List[Tuple[str, int]]]


def packer_report(labeled: LabeledDataset, top_n: int = 5) -> PackerReport:
    """Compute the Section IV-C packer statistics."""
    frame = session_frame(labeled)
    packed = frame.file_packer >= 0
    names = frame.packers.values

    def label_mask(label: FileLabel):
        return frame.file_label == FILE_LABEL_CODE[label]

    def packed_pct(mask) -> float:
        total = int(mask.sum())
        if not total:
            return 0.0
        return 100.0 * int((mask & packed).sum()) / total

    def packer_names(mask) -> Set[str]:
        codes = frame.file_packer[mask]
        codes = codes[codes >= 0]
        return {names[code] for code in np.unique(codes)}

    benign_mask = label_mask(FileLabel.BENIGN)
    malicious_mask = label_mask(FileLabel.MALICIOUS)
    benign_packers = packer_names(benign_mask)
    malicious_packers = packer_names(malicious_mask)

    per_type: Dict[MalwareType, List[Tuple[str, int]]] = {}
    typed = frame.file_type >= 0
    for code in np.unique(frame.file_type[typed & packed]):
        type_mask = frame.file_type == code
        counts = counts_per_code(
            frame.file_packer[type_mask & packed], len(frame.packers)
        )
        items = [
            (names[p], int(counts[p])) for p in np.nonzero(counts)[0]
        ]
        per_type[MALWARE_TYPES[int(code)]] = sorted(
            items, key=lambda i: (-i[1], i[0])
        )[:top_n]

    return PackerReport(
        benign_packed_pct=packed_pct(benign_mask),
        malicious_packed_pct=packed_pct(malicious_mask),
        unknown_packed_pct=packed_pct(label_mask(FileLabel.UNKNOWN)),
        # Every packer vocabulary entry was interned from some file
        # record, so the vocabulary *is* the set of observed packers.
        total_packers=len(frame.packers),
        shared_packers=benign_packers & malicious_packers,
        benign_only_packers=benign_packers - malicious_packers,
        malicious_only_packers=malicious_packers - benign_packers,
        packers_per_type=per_type,
    )

"""File-signer analyses -- Tables VI/VII/VIII/IX and Figure 4.

"Signed" means the file carries a valid software signature (non-null
``signer`` in its metadata).  The "From Browsers" columns restrict to
files whose downloads include at least one browser-initiated event.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import FileLabel, MalwareType, ProcessCategory
from .frame import (
    FILE_LABEL_CODE,
    MALWARE_TYPE_CODE,
    PROCESS_CATEGORY_CODE,
    SessionFrame,
    counts_per_code,
    session_frame,
)


def _browser_file_mask(frame: SessionFrame):
    """Per-file bool: downloaded by a browser process at least once."""
    browser_events = (
        frame.event_process_category()
        == PROCESS_CATEGORY_CODE[ProcessCategory.BROWSER]
    )
    mask = np.zeros(frame.n_files, dtype=bool)
    if frame.n_events:
        mask[np.unique(frame.event_file[browser_events])] = True
    return mask


def _file_label_mask(frame: SessionFrame, label: FileLabel):
    return frame.file_label == FILE_LABEL_CODE[label]


def _file_type_mask(frame: SessionFrame, mtype: MalwareType):
    return frame.file_type == MALWARE_TYPE_CODE[mtype]


def _signer_set(frame: SessionFrame, file_mask):
    """Bool mask over signer codes used by the masked files."""
    mask = np.zeros(len(frame.signers), dtype=bool)
    codes = frame.file_signer[file_mask]
    codes = codes[codes >= 0]
    if codes.shape[0]:
        mask[np.unique(codes)] = True
    return mask


def _signer_file_counts(frame: SessionFrame, file_mask):
    """Per-signer file counts (with multiplicity) for the masked files."""
    codes = frame.file_signer[file_mask]
    return counts_per_code(codes[codes >= 0], len(frame.signers))


@dataclasses.dataclass(frozen=True)
class SignedRateRow:
    """One row of Table VI."""

    group: str  # a MalwareType value, or 'benign'/'unknown'/'malicious'
    files: int
    signed_pct: float
    browser_files: int
    browser_signed_pct: float


def signed_percentages(labeled: LabeledDataset) -> List[SignedRateRow]:
    """Table VI: signed fraction per malicious type and per label class."""
    frame = session_frame(labeled)
    browser_files = _browser_file_mask(frame)
    signed = frame.file_signer >= 0

    def row(group: str, mask) -> SignedRateRow:
        total = int(mask.sum())
        signed_count = int((mask & signed).sum())
        from_browser = mask & browser_files
        browser_total = int(from_browser.sum())
        browser_signed = int((from_browser & signed).sum())
        return SignedRateRow(
            group=group,
            files=total,
            signed_pct=100.0 * signed_count / total if total else 0.0,
            browser_files=browser_total,
            browser_signed_pct=(
                100.0 * browser_signed / browser_total if browser_total
                else 0.0
            ),
        )

    rows = [
        row(mtype.value, _file_type_mask(frame, mtype))
        for mtype in MalwareType
    ]
    rows.append(row("benign", _file_label_mask(frame, FileLabel.BENIGN)))
    rows.append(row("unknown", _file_label_mask(frame, FileLabel.UNKNOWN)))
    rows.append(
        row("malicious", _file_label_mask(frame, FileLabel.MALICIOUS))
    )
    return rows


@dataclasses.dataclass(frozen=True)
class SignerCountRow:
    """One row of Table VII (``mtype=None`` for the Total row)."""

    mtype: Optional[MalwareType]
    signers: int
    common_with_benign: int


def signer_counts(
    labeled: LabeledDataset,
) -> Tuple[List[SignerCountRow], SignerCountRow]:
    """Table VII: distinct signers per type and overlap with benign.

    Returns (per-type rows, total row); the total row's ``mtype`` is
    ``None``-like (reported under "Total" by the renderer).
    """
    frame = session_frame(labeled)
    benign_signers = _signer_set(
        frame, _file_label_mask(frame, FileLabel.BENIGN)
    )
    rows = []
    all_malicious = np.zeros(len(frame.signers), dtype=bool)
    for mtype in MalwareType:
        signers = _signer_set(frame, _file_type_mask(frame, mtype))
        all_malicious |= signers
        rows.append(
            SignerCountRow(
                mtype=mtype,
                signers=int(signers.sum()),
                common_with_benign=int((signers & benign_signers).sum()),
            )
        )
    total = SignerCountRow(
        mtype=None,
        signers=int(all_malicious.sum()),
        common_with_benign=int((all_malicious & benign_signers).sum()),
    )
    return rows, total


@dataclasses.dataclass(frozen=True)
class TopSignersRow:
    """One row of Table VIII."""

    group: str
    top: List[str]
    top_common_with_benign: List[str]
    top_exclusive: List[str]


def _top_codes(frame: SessionFrame, counts, membership, n: int) -> List[str]:
    """Top-``n`` signer names among counts where ``membership`` holds."""
    names = frame.signers.values
    selected = np.nonzero((counts > 0) & membership)[0]
    items = [(names[code], int(counts[code])) for code in selected]
    return [
        name for name, _ in
        sorted(items, key=lambda item: (-item[1], item[0]))[:n]
    ]


def top_signers(labeled: LabeledDataset, n: int = 3) -> List[TopSignersRow]:
    """Table VIII: top signers per type, split common/exclusive vs benign."""
    frame = session_frame(labeled)
    benign_mask = _file_label_mask(frame, FileLabel.BENIGN)
    malicious_mask = _file_label_mask(frame, FileLabel.MALICIOUS)
    benign_signers = _signer_set(frame, benign_mask)
    malicious_signers = _signer_set(frame, malicious_mask)
    everyone = np.ones(len(frame.signers), dtype=bool)

    groups: List[Tuple[str, object]] = [
        (mtype.value, _file_type_mask(frame, mtype)) for mtype in MalwareType
    ]
    groups.append(("malicious (total)", malicious_mask))
    groups.append(("benign", benign_mask))

    rows = []
    for group, file_mask in groups:
        counts = _signer_file_counts(frame, file_mask)
        other = malicious_signers if group == "benign" else benign_signers
        rows.append(
            TopSignersRow(
                group=group,
                top=_top_codes(frame, counts, everyone, n),
                top_common_with_benign=_top_codes(frame, counts, other, n),
                top_exclusive=_top_codes(frame, counts, ~other, n),
            )
        )
    return rows


@dataclasses.dataclass(frozen=True)
class ExclusiveSigners:
    """Table IX: top exclusively-benign and exclusively-malicious signers."""

    benign: List[Tuple[str, int]]
    malicious: List[Tuple[str, int]]


def exclusive_signers(labeled: LabeledDataset, n: int = 10) -> ExclusiveSigners:
    """Top signers that signed only benign or only malicious files."""
    frame = session_frame(labeled)
    benign_counts = _signer_file_counts(
        frame, _file_label_mask(frame, FileLabel.BENIGN)
    )
    malicious_counts = _signer_file_counts(
        frame, _file_label_mask(frame, FileLabel.MALICIOUS)
    )

    def exclusive(counts, other_counts) -> List[Tuple[str, int]]:
        names = frame.signers.values
        selected = np.nonzero((counts > 0) & (other_counts == 0))[0]
        items = [(names[code], int(counts[code])) for code in selected]
        return sorted(items, key=lambda i: (-i[1], i[0]))[:n]

    return ExclusiveSigners(
        benign=exclusive(benign_counts, malicious_counts),
        malicious=exclusive(malicious_counts, benign_counts),
    )


def shared_signer_scatter(labeled: LabeledDataset) -> List[Tuple[str, int, int]]:
    """Figure 4: per shared signer, (name, #malicious files, #benign files)."""
    frame = session_frame(labeled)
    benign_counts = _signer_file_counts(
        frame, _file_label_mask(frame, FileLabel.BENIGN)
    )
    malicious_counts = _signer_file_counts(
        frame, _file_label_mask(frame, FileLabel.MALICIOUS)
    )
    names = frame.signers.values
    shared = np.nonzero((benign_counts > 0) & (malicious_counts > 0))[0]
    return sorted(
        (
            (names[code], int(malicious_counts[code]), int(benign_counts[code]))
            for code in shared
        ),
        key=lambda item: (-(item[1] + item[2]), item[0]),
    )

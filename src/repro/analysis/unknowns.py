"""Characteristics of unknown files -- Section VI-A.

Beyond the hosting-domain view (Table XIII, Figure 6) and the
downloading-process view (Table XIV), this module profiles what the
unknown mass *looks like* against the labeled classes: signing and
packing rates, file sizes, prevalence, and how much of it shares
signers/packers with known benign or malicious files -- the overlap that
makes the Section VI-B rule labeling possible in the first place.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import FileLabel
from .frame import FILE_LABEL_CODE, SessionFrame, session_frame


@dataclasses.dataclass(frozen=True)
class ClassProfile:
    """Summary statistics of one file class."""

    files: int
    signed_fraction: float
    packed_fraction: float
    median_size_bytes: int
    mean_prevalence: float


@dataclasses.dataclass(frozen=True)
class UnknownCharacteristics:
    """The Section VI-A profile of the unknown mass."""

    profiles: Dict[FileLabel, ClassProfile]
    signer_overlap_with_malicious: float
    signer_overlap_with_benign: float
    signer_unseen_fraction: float

    @property
    def rule_reachable_fraction(self) -> float:
        """Upper bound on signer-rule coverage of signed unknowns."""
        return (
            self.signer_overlap_with_malicious
            + self.signer_overlap_with_benign
        )


def _profile(frame: SessionFrame, mask) -> ClassProfile:
    total = int(mask.sum())
    if not total:
        return ClassProfile(0, 0.0, 0.0, 0, 0.0)
    signed = int((frame.file_signer[mask] >= 0).sum())
    packed = int((frame.file_packer[mask] >= 0).sum())
    sizes = np.sort(frame.file_size[mask])
    # statistics.median: middle element for odd counts, mean of the two
    # middle elements (a Python float) truncated by int() for even ones.
    half = total // 2
    if total % 2:
        median = int(sizes[half])
    else:
        median = int((int(sizes[half - 1]) + int(sizes[half])) / 2)
    return ClassProfile(
        files=total,
        signed_fraction=signed / total,
        packed_fraction=packed / total,
        median_size_bytes=median,
        mean_prevalence=int(frame.file_prevalence[mask].sum()) / total,
    )


def unknown_characteristics(labeled: LabeledDataset) -> UnknownCharacteristics:
    """Profile unknown files against benign and malicious files.

    The signer-overlap fractions are computed over *signed* unknown
    files: how many carry a signer also seen on known-malicious (only)
    files, on known-benign (only) files, or on no labeled file at all.
    Signers seen on both sides count toward neither exclusive bucket
    (a rule learner would reject or conflict on them).
    """
    frame = session_frame(labeled)
    masks = {
        label: frame.file_label == FILE_LABEL_CODE[label]
        for label in (FileLabel.UNKNOWN, FileLabel.BENIGN, FileLabel.MALICIOUS)
    }
    profiles = {
        label: _profile(frame, mask) for label, mask in masks.items()
    }

    def signer_mask(file_mask):
        seen = np.zeros(len(frame.signers), dtype=bool)
        codes = frame.file_signer[file_mask]
        codes = codes[codes >= 0]
        if codes.shape[0]:
            seen[np.unique(codes)] = True
        return seen

    benign_signers = signer_mask(masks[FileLabel.BENIGN])
    malicious_signers = signer_mask(masks[FileLabel.MALICIOUS])
    malicious_only = malicious_signers & ~benign_signers
    benign_only = benign_signers & ~malicious_signers

    signed_unknowns = frame.file_signer[masks[FileLabel.UNKNOWN]]
    signed_unknowns = signed_unknowns[signed_unknowns >= 0]
    total_signed = int(signed_unknowns.shape[0])
    if total_signed == 0:
        return UnknownCharacteristics(profiles, 0.0, 0.0, 0.0)
    overlap_malicious = int(malicious_only[signed_unknowns].sum())
    overlap_benign = int(benign_only[signed_unknowns].sum())
    unseen = int(
        (~malicious_signers[signed_unknowns]
         & ~benign_signers[signed_unknowns]).sum()
    )
    return UnknownCharacteristics(
        profiles=profiles,
        signer_overlap_with_malicious=overlap_malicious / total_signed,
        signer_overlap_with_benign=overlap_benign / total_signed,
        signer_unseen_fraction=unseen / total_signed,
    )

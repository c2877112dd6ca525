"""Downloading-process analyses -- Tables X/XI/XII/XIV (Section V).

Benign-process measurements consider only processes whose hash is labeled
benign (whitelist-matched), categorized by on-disk executable name into
browsers / Windows processes / Java / Acrobat Reader / all other.
Malicious-process measurements group processes by their extracted
behavior type (Table XII).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import Browser, FileLabel, MalwareType, ProcessCategory
from .frame import (
    BROWSER_CODE,
    FILE_LABEL_CODE,
    MALWARE_TYPE_CODE,
    MALWARE_TYPES,
    PROCESS_CATEGORIES,
    PROCESS_CATEGORY_CODE,
    SessionFrame,
    session_frame,
    unique_pairs,
)


@dataclasses.dataclass(frozen=True)
class ProcessBehaviorRow:
    """One row of Table X / XI / XII."""

    group: str
    processes: int
    machines: int
    unknown_files: int
    benign_files: int
    malicious_files: int
    infected_machine_pct: float
    type_mix: Dict[MalwareType, float]

    @property
    def total_files(self) -> int:
        """Distinct files of the three reported classes."""
        return self.unknown_files + self.benign_files + self.malicious_files


def _behavior_row(
    frame: SessionFrame, group: str, process_mask
) -> ProcessBehaviorRow:
    selected = process_mask[frame.event_process]
    labels = frame.event_file_label()[selected]
    ev_files = frame.event_file[selected]
    ev_machines = frame.event_machine[selected]

    machines = int(np.unique(ev_machines).shape[0])
    malicious = labels == FILE_LABEL_CODE[FileLabel.MALICIOUS]
    malicious_files = np.unique(ev_files[malicious])
    infected = int(np.unique(ev_machines[malicious]).shape[0])

    def distinct_files(label: FileLabel) -> int:
        mask = labels == FILE_LABEL_CODE[label]
        return int(np.unique(ev_files[mask]).shape[0])

    types = frame.file_type[malicious_files]
    types = types[types >= 0]
    type_codes, counts = np.unique(types, return_counts=True)
    total_typed = int(counts.sum()) if type_codes.shape[0] else 0
    type_mix = {
        MALWARE_TYPES[int(code)]: int(count) / total_typed
        for code, count in zip(type_codes, counts)
    } if total_typed else {}

    return ProcessBehaviorRow(
        group=group,
        processes=int(process_mask.sum()),
        machines=machines,
        unknown_files=distinct_files(FileLabel.UNKNOWN),
        benign_files=distinct_files(FileLabel.BENIGN),
        malicious_files=int(malicious_files.shape[0]),
        infected_machine_pct=(
            100.0 * infected / machines if machines else 0.0
        ),
        type_mix=type_mix,
    )


def _benign_active_mask(frame: SessionFrame):
    benign = frame.process_label == FILE_LABEL_CODE[FileLabel.BENIGN]
    return benign & frame.active_process_mask()


def benign_process_behavior(
    labeled: LabeledDataset,
) -> Dict[ProcessCategory, ProcessBehaviorRow]:
    """Table X: download behavior of benign processes per category.

    Only processes that initiated at least one reported download are
    counted (the dataset has no visibility into idle processes).
    """
    frame = session_frame(labeled)
    eligible = _benign_active_mask(frame)
    result: Dict[ProcessCategory, ProcessBehaviorRow] = {}
    for category in sorted(ProcessCategory, key=lambda c: c.value):
        mask = eligible & (
            frame.process_category == PROCESS_CATEGORY_CODE[category]
        )
        if not mask.any():
            continue
        result[category] = _behavior_row(frame, category.value, mask)
    return result


def browser_behavior(labeled: LabeledDataset) -> Dict[Browser, ProcessBehaviorRow]:
    """Table XI: download behavior per benign browser family."""
    frame = session_frame(labeled)
    eligible = _benign_active_mask(frame)
    result: Dict[Browser, ProcessBehaviorRow] = {}
    for browser in sorted(Browser, key=lambda b: b.value):
        mask = eligible & (frame.process_browser == BROWSER_CODE[browser])
        if not mask.any():
            continue
        result[browser] = _behavior_row(frame, browser.value, mask)
    return result


def malicious_process_behavior(
    labeled: LabeledDataset,
) -> Dict[Optional[MalwareType], ProcessBehaviorRow]:
    """Table XII: download behavior of malicious processes by type.

    The ``None`` key holds the "Overall" row across all malicious
    processes.
    """
    frame = session_frame(labeled)
    malicious = (
        frame.process_label == FILE_LABEL_CODE[FileLabel.MALICIOUS]
    ) & frame.active_process_mask()
    rows: Dict[Optional[MalwareType], ProcessBehaviorRow] = {}
    for mtype in sorted(MalwareType, key=lambda t: t.value):
        mask = malicious & (
            frame.process_type == MALWARE_TYPE_CODE[mtype]
        )
        if not mask.any():
            continue
        rows[mtype] = _behavior_row(frame, mtype.value, mask)
    rows[None] = _behavior_row(frame, "overall", malicious)
    return rows


@dataclasses.dataclass(frozen=True)
class UnknownDownloadsRow:
    """One row of Table XIV."""

    group: str
    unknown_downloads: int


def _group_of_category(category: ProcessCategory) -> str:
    if category == ProcessCategory.BROWSER:
        return "browser"
    if category == ProcessCategory.OTHER:
        return "other benign processes"
    return category.value


def unknown_download_processes(
    labeled: LabeledDataset,
) -> List[UnknownDownloadsRow]:
    """Table XIV: unknown files downloaded per benign process category."""
    frame = session_frame(labeled)
    benign = frame.process_label == FILE_LABEL_CODE[FileLabel.BENIGN]
    qualifying = (
        frame.event_file_label() == FILE_LABEL_CODE[FileLabel.UNKNOWN]
    ) & benign[frame.event_process]
    categories = frame.event_process_category()[qualifying]
    files = frame.event_file[qualifying]

    pair_categories, _ = unique_pairs(categories, files, frame.n_files)
    counts = np.bincount(pair_categories, minlength=len(PROCESS_CATEGORIES))

    # Groups sort by descending count; ties keep the order in which
    # each group's first qualifying event appeared.
    entries = []
    for code in np.unique(categories):
        first_position = int(np.nonzero(categories == code)[0][0])
        entries.append(
            (
                -int(counts[code]),
                first_position,
                _group_of_category(PROCESS_CATEGORIES[int(code)]),
                int(counts[code]),
            )
        )
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    rows = [
        UnknownDownloadsRow(group=group, unknown_downloads=count)
        for _, _, group, count in entries
    ]
    rows.append(
        UnknownDownloadsRow(
            group="total",
            unknown_downloads=sum(row.unknown_downloads for row in rows),
        )
    )
    return rows

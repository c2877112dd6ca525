"""Monthly dataset summary -- Table I.

For each collection month: number of machines and download events, and
the label breakdown of the distinct download processes, downloaded files
and download URLs observed that month.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import FileLabel, UrlLabel
from ..telemetry.events import MONTH_NAMES, NUM_MONTHS
from .frame import URL_LABEL_CODE, SessionFrame, session_frame


@dataclasses.dataclass(frozen=True)
class MonthlySummaryRow:
    """One row of Table I (percentages in 0..100)."""

    month: str
    machines: int
    events: int
    processes: int
    proc_benign_pct: float
    proc_likely_benign_pct: float
    proc_malicious_pct: float
    proc_likely_malicious_pct: float
    files: int
    file_benign_pct: float
    file_likely_benign_pct: float
    file_malicious_pct: float
    file_likely_malicious_pct: float
    urls: int
    url_benign_pct: float
    url_malicious_pct: float

    @property
    def file_unknown_pct(self) -> float:
        """Percentage of the month's files with no ground truth."""
        return 100.0 - (
            self.file_benign_pct
            + self.file_likely_benign_pct
            + self.file_malicious_pct
            + self.file_likely_malicious_pct
        )


def _pct(count: int, total: int) -> float:
    return 100.0 * count / total if total else 0.0


def _label_pcts(label_column, codes) -> Dict[FileLabel, float]:
    """Percentage of the coded entities carrying each label."""
    total = int(codes.shape[0])
    # Shift by one so an ABSENT (-1) entry lands in bin 0 and the five
    # real labels in bins 1..5.
    counts = np.bincount(
        label_column[codes] + 1, minlength=len(FileLabel) + 1
    )
    return {
        label: _pct(int(counts[i + 1]), total)
        for i, label in enumerate(FileLabel)
    }


def _summarize(frame: SessionFrame, mask, month: str) -> MonthlySummaryRow:
    if mask is None:
        events = frame.n_events
        ev_files = frame.event_file
        ev_machines = frame.event_machine
        ev_processes = frame.event_process
        ev_urls = frame.event_url
    else:
        events = int(mask.sum())
        ev_files = frame.event_file[mask]
        ev_machines = frame.event_machine[mask]
        ev_processes = frame.event_process[mask]
        ev_urls = frame.event_url[mask]
    files = np.unique(ev_files)
    machines = np.unique(ev_machines)
    processes = np.unique(ev_processes)
    urls = np.unique(ev_urls)

    file_pcts = _label_pcts(frame.file_label, files)
    proc_pcts = _label_pcts(frame.process_label, processes)
    url_labels = frame.url_label[urls]
    url_benign = int((url_labels == URL_LABEL_CODE[UrlLabel.BENIGN]).sum())
    url_malicious = int(
        (url_labels == URL_LABEL_CODE[UrlLabel.MALICIOUS]).sum()
    )
    return MonthlySummaryRow(
        month=month,
        machines=int(machines.shape[0]),
        events=events,
        processes=int(processes.shape[0]),
        proc_benign_pct=proc_pcts[FileLabel.BENIGN],
        proc_likely_benign_pct=proc_pcts[FileLabel.LIKELY_BENIGN],
        proc_malicious_pct=proc_pcts[FileLabel.MALICIOUS],
        proc_likely_malicious_pct=proc_pcts[FileLabel.LIKELY_MALICIOUS],
        files=int(files.shape[0]),
        file_benign_pct=file_pcts[FileLabel.BENIGN],
        file_likely_benign_pct=file_pcts[FileLabel.LIKELY_BENIGN],
        file_malicious_pct=file_pcts[FileLabel.MALICIOUS],
        file_likely_malicious_pct=file_pcts[FileLabel.LIKELY_MALICIOUS],
        urls=int(urls.shape[0]),
        url_benign_pct=_pct(url_benign, int(urls.shape[0])),
        url_malicious_pct=_pct(url_malicious, int(urls.shape[0])),
    )


def monthly_summary(labeled: LabeledDataset) -> List[MonthlySummaryRow]:
    """Compute Table I: one row per month plus an "Overall" row."""
    frame = session_frame(labeled)
    rows = [
        _summarize(frame, frame.event_month == month, MONTH_NAMES[month])
        for month in range(NUM_MONTHS)
    ]
    rows.append(_summarize(frame, None, "Overall"))
    return rows

"""File-prevalence analysis -- Figure 2 and Section IV-A headline numbers.

Prevalence of a file is the number of distinct machines that downloaded
it.  The analysis reports the per-label prevalence distributions (the
figure's series), the fraction of single-machine files ("almost 90%"),
and the aggregate reach of unknown files across machines ("69% of the
machine population").
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import FileLabel
from .frame import FILE_LABEL_CODE, session_frame


@dataclasses.dataclass(frozen=True)
class PrevalenceReport:
    """Everything Figure 2 and its surrounding prose report."""

    distribution_by_label: Dict[FileLabel, Counter]
    single_machine_fraction: float
    single_machine_fraction_by_label: Dict[FileLabel, float]
    capped_fraction: float
    machines_with_unknown_fraction: float

    def ccdf_series(self, label: FileLabel) -> List[Tuple[int, float]]:
        """(prevalence, fraction of files with >= that prevalence)."""
        counts = self.distribution_by_label.get(label, Counter())
        total = sum(counts.values())
        if total == 0:
            return []
        series = []
        remaining = total
        for prevalence in sorted(counts):
            series.append((prevalence, remaining / total))
            remaining -= counts[prevalence]
        return series


def prevalence_report(
    labeled: LabeledDataset, sigma: int = 20
) -> PrevalenceReport:
    """Compute the Figure 2 report.

    ``sigma`` is the reporting threshold: files whose observed prevalence
    reached it are "capped" (their true prevalence may be higher) and
    counted in ``capped_fraction`` -- the paper reports ~0.25%.
    """
    frame = session_frame(labeled)
    # ``dataset.file_prevalence`` only covers files with >= 1 event.
    observed = frame.file_prevalence > 0
    prevalence = frame.file_prevalence[observed]
    labels = frame.file_label[observed]

    by_label: Dict[FileLabel, Counter] = {}
    single_by_label: Dict[FileLabel, float] = {}
    for label in FileLabel:
        values = prevalence[labels == FILE_LABEL_CODE[label]]
        distinct, counts = np.unique(values, return_counts=True)
        histogram = Counter(
            dict(zip((int(p) for p in distinct), (int(c) for c in counts)))
        )
        by_label[label] = histogram
        label_total = int(values.shape[0])
        single_by_label[label] = (
            histogram[1] / label_total if label_total else 0.0
        )

    total = int(prevalence.shape[0])
    single = int((prevalence == 1).sum())
    capped = int((prevalence >= sigma).sum())

    unknown_mask = (
        frame.event_file_label() == FILE_LABEL_CODE[FileLabel.UNKNOWN]
    )
    unknown_machines = int(
        np.unique(frame.event_machine[unknown_mask]).shape[0]
    )
    machine_total = frame.n_machines

    return PrevalenceReport(
        distribution_by_label=by_label,
        single_machine_fraction=single / total if total else 0.0,
        single_machine_fraction_by_label=single_by_label,
        capped_fraction=capped / total if total else 0.0,
        machines_with_unknown_fraction=(
            unknown_machines / machine_total if machine_total else 0.0
        ),
    )

"""Infection-timing analysis -- Figure 5 (Section V-B).

For every machine that downloads-and-executes a file of a *source* class
(benign / adware / PUP / dropper), measure the time until the machine's
next download of "other malware" -- a malicious file whose type is not
adware, PUP or undefined.  Benign sources additionally require that the
machine had no malicious download before the benign one (the paper's
control group).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import FIG5_EXCLUDED_TYPES, FileLabel, MalwareType
from .common import cdf_points
from .frame import FILE_LABEL_CODE, MALWARE_TYPE_CODE, session_frame

#: The Figure 5 source classes.
SOURCES = ("benign", "adware", "pup", "dropper")

#: Default day grid on which the CDFs are reported.
DEFAULT_GRID: Tuple[float, ...] = (0.99, 2, 3, 5, 7, 10, 14, 21, 30, 45, 60, 90)


@dataclasses.dataclass(frozen=True)
class InfectionTimingReport:
    """Per-source time deltas and their CDFs."""

    deltas: Dict[str, List[float]]
    grid: Sequence[float]

    def cdf(self, source: str) -> List[Tuple[float, float]]:
        """CDF points for one source class."""
        return cdf_points(self.deltas[source], list(self.grid))

    def fraction_within(self, source: str, days: float) -> float:
        """Fraction of machines infected within ``days`` of the source."""
        values = self.deltas[source]
        if not values:
            return 0.0
        return sum(1 for value in values if value <= days) / len(values)


def infection_timing(
    labeled: LabeledDataset, grid: Sequence[float] = DEFAULT_GRID
) -> InfectionTimingReport:
    """Compute the Figure 5 time-delta distributions.

    For each machine and each source class, uses the machine's *first*
    download of that class and the first "other malware" download
    *strictly after* it, so a dropper download, which is both, never
    resolves its own registration.  Machines that never follow up
    contribute nothing (the figure plots the CDF over infected
    machines), and benign registrations preceded by any malicious
    download are dropped (the paper's control-group condition).

    Vectorized as one stable sort, then per-source searchsorted over
    positions in a machine-grouped ordering:

    * stable-argsort events by machine code -- machine codes are assigned
      in first-appearance order, so each source's deltas list machines
      in the order they first appear, and within a segment events keep
      their global (time-sorted) order;
    * registration = first in-segment position with the source's code;
    * resolution = first other-malware position ``> registration`` still
      inside the segment (``searchsorted`` on the sorted positions);
    * benign control = no malicious position ``< registration``.
    """
    frame = session_frame(labeled)
    deltas: Dict[str, List[float]] = {source: [] for source in SOURCES}
    n = frame.n_events
    if n == 0:
        return InfectionTimingReport(deltas=deltas, grid=grid)

    labels = frame.event_file_label()
    types = frame.event_file_type()

    # Per-event source class (-1 = not a source).  Type rules first,
    # then the benign label overrides: a benign file is a benign source
    # whatever its type.
    source_codes = np.full(n, -1, dtype=np.int8)
    source_codes[types == MALWARE_TYPE_CODE[MalwareType.ADWARE]] = SOURCES.index("adware")
    source_codes[types == MALWARE_TYPE_CODE[MalwareType.PUP]] = SOURCES.index("pup")
    source_codes[types == MALWARE_TYPE_CODE[MalwareType.DROPPER]] = SOURCES.index("dropper")
    source_codes[labels == FILE_LABEL_CODE[FileLabel.BENIGN]] = SOURCES.index("benign")

    excluded = np.array(
        [MALWARE_TYPE_CODE[mtype] for mtype in FIG5_EXCLUDED_TYPES],
        dtype=np.int8,
    )
    is_other_malware = (types >= 0) & ~np.isin(types, excluded)
    is_malicious = labels == FILE_LABEL_CODE[FileLabel.MALICIOUS]

    order = np.argsort(frame.event_machine, kind="stable")
    machines = frame.event_machine[order]
    timestamps = frame.event_timestamp[order]
    source_codes = source_codes[order]
    is_other_malware = is_other_malware[order]
    is_malicious = is_malicious[order]

    n_machines = frame.n_machines
    counts = np.bincount(machines, minlength=n_machines)
    ends = np.cumsum(counts)
    starts = ends - counts

    om_positions = np.nonzero(is_other_malware)[0]
    mal_positions = np.nonzero(is_malicious)[0]

    # First malicious position per machine (sentinel n = none).
    first_malicious = np.full(n_machines, n, dtype=np.int64)
    if mal_positions.shape[0]:
        k = np.searchsorted(mal_positions, starts, side="left")
        candidate = mal_positions[np.minimum(k, mal_positions.shape[0] - 1)]
        ok = (k < mal_positions.shape[0]) & (candidate < ends)
        first_malicious[ok] = candidate[ok]

    if om_positions.shape[0] == 0:
        return InfectionTimingReport(deltas=deltas, grid=grid)

    for code, source in enumerate(SOURCES):
        positions = np.nonzero(source_codes == code)[0]
        if positions.shape[0] == 0:
            continue
        k = np.searchsorted(positions, starts, side="left")
        registration = positions[np.minimum(k, positions.shape[0] - 1)]
        registered = (k < positions.shape[0]) & (registration < ends)

        j = np.searchsorted(om_positions, registration, side="right")
        resolution = om_positions[np.minimum(j, om_positions.shape[0] - 1)]
        resolved = registered & (j < om_positions.shape[0]) & (resolution < ends)
        if source == "benign":
            resolved &= ~(first_malicious < registration)
        selected = np.nonzero(resolved)[0]
        gaps = timestamps[resolution[selected]] - timestamps[registration[selected]]
        deltas[source] = [float(gap) for gap in gaps]
    return InfectionTimingReport(deltas=deltas, grid=grid)

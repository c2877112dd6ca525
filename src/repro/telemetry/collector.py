"""The central collection server (CS).

Receives candidate events from software agents in timestamp order,
enforces the global prevalence threshold ``sigma`` (Section II-A), and
materializes the resulting :class:`~repro.telemetry.dataset.TelemetryDataset`.

The prevalence filter works exactly as described in the paper: a download
of file ``f`` by machine ``m`` at time ``t`` is reported only if the number
of *distinct machines* that downloaded ``f`` before ``t`` is less than
``sigma``.  A machine that already counts toward ``f``'s prevalence may
report repeat downloads without increasing the count.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set

from ..obs import metrics as obs_metrics
from ..obs import trace
from .agent import ReportingPolicy, SoftwareAgent
from .dataset import TelemetryDataset
from .events import DownloadEvent, FileRecord, ProcessRecord


@dataclasses.dataclass
class FilterStats:
    """Counts of raw events accepted/dropped per reporting filter."""

    observed: int = 0
    reported: int = 0
    not_executed: int = 0
    whitelisted_url: int = 0
    over_sigma: int = 0

    @property
    def dropped(self) -> int:
        """Total raw events that were not reported."""
        return self.not_executed + self.whitelisted_url + self.over_sigma

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view, convenient for reporting and assertions."""
        return dataclasses.asdict(self)

    def merge(self, other: "FilterStats") -> "FilterStats":
        """Fold another stats object into this one (counter-wise sum).

        The serve front-end splits filtering between the edge (agents
        count ``observed``/``not_executed``/``whitelisted_url``) and the
        central collector (``over_sigma``/``reported``); merging the two
        halves must reproduce exactly what single-site :func:`collect`
        would have counted.
        """
        self.observed += other.observed
        self.reported += other.reported
        self.not_executed += other.not_executed
        self.whitelisted_url += other.whitelisted_url
        self.over_sigma += other.over_sigma
        return self

    def __iadd__(self, other: "FilterStats") -> "FilterStats":
        return self.merge(other)

    def __add__(self, other: "FilterStats") -> "FilterStats":
        return dataclasses.replace(self).merge(other)


class CollectionServer:
    """Aggregates agent reports into a telemetry dataset.

    Parameters
    ----------
    policy:
        Reporting policy shared by server and agents; defaults match the
        paper's collection configuration (``sigma=20``).
    """

    def __init__(self, policy: Optional[ReportingPolicy] = None) -> None:
        self.policy = policy or ReportingPolicy()
        self._agent = SoftwareAgent(self.policy)
        self._machines_per_file: Dict[str, Set[str]] = {}
        self._reported: List[DownloadEvent] = []
        self.stats = FilterStats()
        self._last_timestamp = float("-inf")
        self._lock = threading.Lock()

    def submit(self, event: DownloadEvent, *, prefiltered: bool = False) -> bool:
        """Process one raw event; returns whether it was reported.

        Events must be submitted in non-decreasing timestamp order, since
        the prevalence filter is defined over "machines that downloaded
        before time t".  Submission is serialized by an internal lock so
        concurrent submitters (the serve front-end's flush path) never
        lose counter increments: ``stats.reported + stats.dropped ==
        stats.observed`` holds at every quiescent point.

        ``prefiltered`` marks an event whose *agent-side* filters
        (``not_executed``/``whitelisted_url``) already ran at the edge.
        The server then applies only the central prevalence filter and
        leaves ``observed``/``not_executed``/``whitelisted_url`` alone --
        the edge counted those -- so edge stats merged with server stats
        match single-site filtering exactly (see :meth:`FilterStats.merge`).
        """
        with self._lock:
            if event.timestamp < self._last_timestamp:
                raise ValueError(
                    "events must be submitted in timestamp order "
                    f"({event.timestamp} after {self._last_timestamp})"
                )
            self._last_timestamp = event.timestamp
            if not prefiltered:
                self.stats.observed += 1

                reason = self._agent.filter_reason(event)
                if reason is not None:
                    if reason == "not_executed":
                        self.stats.not_executed += 1
                    else:
                        self.stats.whitelisted_url += 1
                    return False

            machines = self._machines_per_file.setdefault(event.file_sha1, set())
            if event.machine_id not in machines and len(machines) >= self.policy.sigma:
                self.stats.over_sigma += 1
                return False
            machines.add(event.machine_id)
            self._reported.append(event)
            self.stats.reported += 1
            return True

    def dataset(
        self,
        files: Mapping[str, FileRecord],
        processes: Mapping[str, ProcessRecord],
    ) -> TelemetryDataset:
        """Materialize the dataset of reported events.

        Metadata tables may be supersets; they are narrowed to the hashes
        actually reported.  Narrowing keeps first-seen event order (not
        set order, which varies with the per-process string hash seed) so
        a dataset -- and anything serialized from it -- is byte-identical
        across runs.
        """
        file_shas = dict.fromkeys(event.file_sha1 for event in self._reported)
        proc_shas = dict.fromkeys(event.process_sha1 for event in self._reported)
        return TelemetryDataset(
            list(self._reported),
            {sha: files[sha] for sha in file_shas},
            {sha: processes[sha] for sha in proc_shas},
        )


def merge_sorted_streams(
    streams: Sequence[Iterable[DownloadEvent]],
) -> Iterator[DownloadEvent]:
    """Lazily k-way-merge per-shard timestamp-sorted event streams.

    Each input stream must already be in non-decreasing timestamp order
    (every generation shard sorts its own output).  The merge is stable:
    ties keep the stream order, which is what makes sharded generation
    deterministic.  The result satisfies :meth:`CollectionServer.submit`'s
    ordering contract without materializing a combined list first.
    """
    return heapq.merge(*streams, key=attrgetter("timestamp"))


def collect(
    raw_events: Iterable[DownloadEvent],
    files: Mapping[str, FileRecord],
    processes: Mapping[str, ProcessRecord],
    policy: Optional[ReportingPolicy] = None,
):
    """One-call pipeline: raw events -> (dataset, filter stats).

    ``raw_events`` must be iterable in timestamp order (the simulator
    guarantees this).  Filter statistics feed the metrics registry once
    per call -- the per-event submit loop stays uninstrumented.
    """
    server = CollectionServer(policy)
    submit = server.submit
    with trace.span("telemetry.collect") as span:
        for event in raw_events:
            submit(event)
        dataset = server.dataset(files, processes)
        span.set_attribute("observed", server.stats.observed)
        span.set_attribute("reported", server.stats.reported)
    stats = server.stats
    obs_metrics.counter(
        "collector.events_observed", "Raw events submitted to the CS"
    ).inc(stats.observed)
    obs_metrics.counter(
        "collector.events_reported", "Events surviving the reporting filters"
    ).inc(stats.reported)
    obs_metrics.counter(
        "collector.events_dropped", "Events dropped by the reporting filters"
    ).inc(stats.dropped)
    return dataset, stats

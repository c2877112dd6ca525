"""Container and indexes for a collected telemetry dataset.

A :class:`TelemetryDataset` is what the collection server hands to the
analyses: the reported download events plus the static file/process
metadata tables.  All derived indexes (prevalence, per-month slices,
per-machine timelines, ...) are built lazily and cached, since different
analyses need different cuts of the same data.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Sequence, Set

from .events import NUM_MONTHS, DownloadEvent, FileRecord, ProcessRecord


def event_digest_line(event: DownloadEvent) -> bytes:
    """One event's contribution to a dataset content digest.

    Shared between :meth:`TelemetryDataset.content_digest` and the
    store's incremental append sessions
    (:class:`repro.telemetry.store.AppendSession`), which must produce
    the exact same digest without ever materializing the full dataset.
    """
    return (
        f"{event.file_sha1}|{event.machine_id}|{event.process_sha1}"
        f"|{event.url}|{event.timestamp!r}|{event.executed}\n"
    ).encode()


def file_digest_line(record: FileRecord) -> bytes:
    """One file record's contribution to a dataset content digest."""
    return f"F{record!r}\n".encode()


def process_digest_line(record: ProcessRecord) -> bytes:
    """One process record's contribution to a dataset content digest."""
    return f"P{record!r}\n".encode()


class TelemetryDataset:
    """An immutable collection of reported download events with metadata.

    Parameters
    ----------
    events:
        Reported download events, in any order; they are stored sorted by
        timestamp (stable for equal timestamps).
    files:
        ``sha1 -> FileRecord`` for every file hash appearing in ``events``.
    processes:
        ``sha1 -> ProcessRecord`` for every process hash in ``events``.
    """

    def __init__(
        self,
        events: Iterable[DownloadEvent],
        files: Mapping[str, FileRecord],
        processes: Mapping[str, ProcessRecord],
    ) -> None:
        self._events: List[DownloadEvent] = sorted(
            events, key=lambda event: event.timestamp
        )
        self._files: Dict[str, FileRecord] = dict(files)
        self._processes: Dict[str, ProcessRecord] = dict(processes)
        missing_files = {
            event.file_sha1
            for event in self._events
            if event.file_sha1 not in self._files
        }
        if missing_files:
            raise ValueError(
                f"{len(missing_files)} event file hashes missing from the "
                f"file table (e.g. {sorted(missing_files)[:3]})"
            )
        missing_procs = {
            event.process_sha1
            for event in self._events
            if event.process_sha1 not in self._processes
        }
        if missing_procs:
            raise ValueError(
                f"{len(missing_procs)} event process hashes missing from "
                f"the process table (e.g. {sorted(missing_procs)[:3]})"
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def events(self) -> Sequence[DownloadEvent]:
        """All reported events, sorted by timestamp."""
        return self._events

    @property
    def files(self) -> Mapping[str, FileRecord]:
        """File metadata table keyed by sha1."""
        return self._files

    @property
    def processes(self) -> Mapping[str, ProcessRecord]:
        """Process metadata table keyed by sha1."""
        return self._processes

    def __len__(self) -> int:
        return len(self._events)

    def content_digest(self) -> str:
        """Canonical SHA-256 digest of the dataset's full content.

        Events contribute in their stored (timestamp-sorted, stable)
        order; the metadata tables contribute in sorted-hash order so the
        digest is independent of dict insertion order.  Two datasets are
        bit-identical -- same events, same metadata -- iff their digests
        match, which is how the determinism guarantees of the sharded
        generation engine and the world cache are verified.
        """
        import hashlib

        digest = hashlib.sha256()
        for event in self._events:
            digest.update(event_digest_line(event))
        for sha in sorted(self._files):
            digest.update(file_digest_line(self._files[sha]))
        for sha in sorted(self._processes):
            digest.update(process_digest_line(self._processes[sha]))
        return digest.hexdigest()

    def __repr__(self) -> str:
        return (
            f"TelemetryDataset(events={len(self._events)}, "
            f"files={len(self._files)}, processes={len(self._processes)}, "
            f"machines={len(self.machine_ids)})"
        )

    # ------------------------------------------------------------------
    # Cached indexes
    # ------------------------------------------------------------------

    @cached_property
    def machine_ids(self) -> Set[str]:
        """Distinct machines that reported at least one event."""
        return {event.machine_id for event in self._events}

    @cached_property
    def file_prevalence(self) -> Dict[str, int]:
        """Distinct machines per file -- the paper's *prevalence* metric.

        Section IV-A defines the prevalence of a file as the total number
        of distinct machines that downloaded it; the reporting threshold
        caps observable prevalence near ``sigma``.
        """
        machines_per_file: Dict[str, Set[str]] = defaultdict(set)
        for event in self._events:
            machines_per_file[event.file_sha1].add(event.machine_id)
        return {sha: len(machines) for sha, machines in machines_per_file.items()}

    @cached_property
    def machines_for_file(self) -> Dict[str, Set[str]]:
        """``file sha1 -> set of machine ids`` that downloaded it."""
        index: Dict[str, Set[str]] = defaultdict(set)
        for event in self._events:
            index[event.file_sha1].add(event.machine_id)
        return dict(index)

    @cached_property
    def events_by_month(self) -> List[List[DownloadEvent]]:
        """Events grouped into the seven collection months."""
        buckets: List[List[DownloadEvent]] = [[] for _ in range(NUM_MONTHS)]
        for event in self._events:
            buckets[event.month].append(event)
        return buckets

    @cached_property
    def events_by_machine(self) -> Dict[str, List[DownloadEvent]]:
        """Per-machine event timeline (each list is time-sorted)."""
        timelines: Dict[str, List[DownloadEvent]] = defaultdict(list)
        for event in self._events:  # already globally sorted
            timelines[event.machine_id].append(event)
        return dict(timelines)

    @cached_property
    def events_by_file(self) -> Dict[str, List[DownloadEvent]]:
        """``file sha1 -> events that downloaded it`` (time-sorted)."""
        index: Dict[str, List[DownloadEvent]] = defaultdict(list)
        for event in self._events:
            index[event.file_sha1].append(event)
        return dict(index)

    @cached_property
    def urls(self) -> Set[str]:
        """Distinct download URLs."""
        return {event.url for event in self._events}

    @cached_property
    def e2lds(self) -> Set[str]:
        """Distinct effective 2LDs of download URLs."""
        return {event.e2ld for event in self._events}

    # ------------------------------------------------------------------
    # Convenience slices
    # ------------------------------------------------------------------

    def month_slice(self, month: int) -> "TelemetryDataset":
        """A new dataset restricted to one month's events.

        Metadata tables are narrowed to the hashes referenced that month.
        Used by the rule-learning evaluation to form ``T_tr``/``T_ts``.
        """
        events = self.events_by_month[month]
        file_shas = {event.file_sha1 for event in events}
        proc_shas = {event.process_sha1 for event in events}
        return TelemetryDataset(
            events,
            {sha: self._files[sha] for sha in file_shas},
            {sha: self._processes[sha] for sha in proc_shas},
        )

    def months_slice(self, months: Iterable[int]) -> "TelemetryDataset":
        """A new dataset restricted to a set of months."""
        wanted = set(months)
        events = [event for event in self._events if event.month in wanted]
        file_shas = {event.file_sha1 for event in events}
        proc_shas = {event.process_sha1 for event in events}
        return TelemetryDataset(
            events,
            {sha: self._files[sha] for sha in file_shas},
            {sha: self._processes[sha] for sha in proc_shas},
        )

    def first_event_for_file(self, file_sha1: str) -> DownloadEvent:
        """The earliest reported event that downloaded ``file_sha1``."""
        return self.events_by_file[file_sha1][0]

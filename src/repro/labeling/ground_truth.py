"""Ground-truth labeling pipeline (Section II-B/II-C).

:class:`GroundTruthLabeler` implements the paper's labeling policy over
the scanning service and whitelist/blacklist services:

* **benign** -- the hash matches the file whitelist, or the (final) VT
  report is clean with a first/last-scan span of at least 14 days;
* **likely benign** -- clean VT report but scan span under 14 days;
* **malicious** -- at least one of the ten trusted engines detects;
* **likely malicious** -- only less-reliable engines detect;
* **unknown** -- no whitelist match and no VT report.

Downloading processes are labeled the same way by their hash.  Malicious
files and processes additionally get a behavior type (via
:mod:`repro.labeling.avtype`) and a family (via
:mod:`repro.labeling.avclass`).  The result is a :class:`LabeledDataset`,
the input to every analysis module.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.events import DownloadEvent

from ..obs import metrics as obs_metrics
from ..obs import trace
from ..telemetry.dataset import TelemetryDataset
from .av import TRUSTED_ENGINES
from .avclass import extract_family
from .avtype import TypeExtraction, TypeExtractor
from .labels import FileLabel, MalwareType, UrlLabel
from .virustotal import FINAL_QUERY_DAY, VirusTotalSimulator
from .whitelists import FileWhitelist, UrlReputationService

#: Scan-span threshold for the "likely benign" label (Section II-B).
LIKELY_BENIGN_SPAN_DAYS = 14.0


@dataclasses.dataclass
class LabeledDataset:
    """A telemetry dataset together with all derived ground truth."""

    dataset: TelemetryDataset
    file_labels: Dict[str, FileLabel]
    process_labels: Dict[str, FileLabel]
    url_labels: Dict[str, UrlLabel]
    file_types: Dict[str, TypeExtraction]
    process_types: Dict[str, TypeExtraction]
    file_families: Dict[str, Optional[str]]
    type_resolution_fractions: Dict[str, float]

    # ------------------------------------------------------------------
    # Convenience accessors used throughout the analyses
    # ------------------------------------------------------------------

    def label_of(self, sha1: str) -> FileLabel:
        """Ground-truth label of a file hash."""
        return self.file_labels[sha1]

    def type_of(self, sha1: str) -> Optional[MalwareType]:
        """Behavior type of a malicious file, else ``None``."""
        extraction = self.file_types.get(sha1)
        return extraction.mtype if extraction else None

    def process_type_of(self, sha1: str) -> Optional[MalwareType]:
        """Behavior type of a malicious process, else ``None``."""
        extraction = self.process_types.get(sha1)
        return extraction.mtype if extraction else None

    def files_with_label(self, label: FileLabel) -> Set[str]:
        """All file hashes carrying ``label``."""
        return {
            sha1 for sha1, file_label in self.file_labels.items()
            if file_label == label
        }

    def label_counts(self) -> Counter:
        """Counter of file labels."""
        return Counter(self.file_labels.values())

    def process_label_counts(self) -> Counter:
        """Counter of process labels."""
        return Counter(self.process_labels.values())

    def url_label_counts(self) -> Counter:
        """Counter of URL labels."""
        return Counter(self.url_labels.values())

    def first_events(self) -> Dict[str, "DownloadEvent"]:
        """First reported download event per file hash.

        Feature extraction describes each file by its *first* event;
        deriving the map walks every event, so it is computed once per
        labeled dataset and cached (the cache is a plain instance
        attribute, invisible to dataclass equality).
        """
        cached = self.__dict__.get("_first_events")
        if cached is None:
            cached = {}
            for event in self.dataset.events:
                cached.setdefault(event.file_sha1, event)
            self.__dict__["_first_events"] = cached
        return cached

    def content_digest(self) -> str:
        """Canonical digest of the telemetry content plus every label.

        Used as a memo key (e.g. the :func:`repro.core.evaluation
        .learn_rules` rule cache): two labeled datasets with equal
        digests yield identical training sets.  Computed once per
        instance and cached.
        """
        cached = self.__dict__.get("_content_digest")
        if cached is None:
            digest = hashlib.sha256()
            digest.update(self.dataset.content_digest().encode())
            for sha in sorted(self.file_labels):
                digest.update(
                    f"f|{sha}|{self.file_labels[sha].value}\n".encode()
                )
            for sha in sorted(self.process_labels):
                digest.update(
                    f"p|{sha}|{self.process_labels[sha].value}\n".encode()
                )
            cached = digest.hexdigest()
            self.__dict__["_content_digest"] = cached
        return cached

    def month_slice(self, month: int) -> "LabeledDataset":
        """This labeled dataset restricted to one collection month.

        Ground-truth dictionaries are narrowed to the hashes/URLs present
        that month; the type-resolution statistics stay global.
        """
        sliced = self.dataset.month_slice(month)
        return LabeledDataset(
            dataset=sliced,
            file_labels={sha: self.file_labels[sha] for sha in sliced.files},
            process_labels={
                sha: self.process_labels[sha] for sha in sliced.processes
            },
            url_labels={url: self.url_labels[url] for url in sliced.urls},
            file_types={
                sha: self.file_types[sha]
                for sha in sliced.files
                if sha in self.file_types
            },
            process_types={
                sha: self.process_types[sha]
                for sha in sliced.processes
                if sha in self.process_types
            },
            file_families={
                sha: self.file_families[sha]
                for sha in sliced.files
                if sha in self.file_families
            },
            type_resolution_fractions=self.type_resolution_fractions,
        )


class GroundTruthLabeler:
    """Applies the paper's labeling policy over the truth services."""

    def __init__(
        self,
        virustotal: VirusTotalSimulator,
        whitelist: FileWhitelist,
        url_service: UrlReputationService,
        query_day: float = FINAL_QUERY_DAY,
    ) -> None:
        self._vt = virustotal
        self._whitelist = whitelist
        self._urls = url_service
        self._query_day = query_day

    # ------------------------------------------------------------------
    # Single-object labeling
    # ------------------------------------------------------------------

    def label_hash(self, sha1: str) -> FileLabel:
        """Label one file/process hash per the Section II-B policy.

        The VT report is read as visible on the labeler's query day.
        Labels mature: an earlier query day can see ``UNKNOWN`` (no
        report yet) or ``LIKELY_MALICIOUS`` where a later one sees
        ``MALICIOUS``.  The report's scan span counts as report
        metadata and is not clamped to the query day.
        """
        return self._verdict(sha1)[0]

    def detections_of(self, sha1: str) -> Dict[str, str]:
        """Per-engine detections visible on the query day."""
        report = self._vt.query(sha1, self._query_day)
        if report is None:
            return {}
        return report.detections_at(self._query_day)

    def _verdict(self, sha1: str) -> Tuple[FileLabel, Dict[str, str]]:
        """``sha1``'s label and query-day detections, from one VT query.

        A whitelisted hash is labeled without a query and reports no
        detections.
        """
        if sha1 in self._whitelist:
            return FileLabel.BENIGN, {}
        report = self._vt.query(sha1, self._query_day)
        if report is None:
            return FileLabel.UNKNOWN, {}
        detections = report.detections_at(self._query_day)
        if detections:
            if any(engine in TRUSTED_ENGINES for engine in detections):
                return FileLabel.MALICIOUS, detections
            return FileLabel.LIKELY_MALICIOUS, detections
        if report.scan_span_days >= LIKELY_BENIGN_SPAN_DAYS:
            return FileLabel.BENIGN, detections
        return FileLabel.LIKELY_BENIGN, detections

    def label_url(self, url: str) -> UrlLabel:
        """Label one download URL."""
        return self._urls.label_url(url)

    # ------------------------------------------------------------------
    # Dataset labeling
    # ------------------------------------------------------------------

    def label_dataset(self, dataset: TelemetryDataset) -> LabeledDataset:
        """Label every file, process and URL of a dataset."""
        with trace.span(
            "labeling.label_dataset",
            files=len(dataset.files),
            processes=len(dataset.processes),
        ):
            labeled = self._label_dataset(dataset)
        obs_metrics.counter(
            "labeler.files_labeled", "File hashes run through the labeler"
        ).inc(len(labeled.file_labels))
        obs_metrics.counter(
            "labeler.processes_labeled", "Process hashes labeled"
        ).inc(len(labeled.process_labels))
        obs_metrics.counter(
            "labeler.urls_labeled", "Download URLs labeled"
        ).inc(len(labeled.url_labels))
        obs_metrics.counter(
            "labeler.malicious_files", "Files labeled malicious"
        ).inc(len(labeled.file_types))
        return labeled

    def _label_dataset(self, dataset: TelemetryDataset) -> LabeledDataset:
        # One VT query per distinct hash; a malicious hash's type and
        # family are extracted from that query's detections, which are
        # then dropped with the report.  Types are extracted for files
        # first, then for processes that are not also files, which fixes
        # the order behind ``type_resolution_fractions``.
        extractor = TypeExtractor()
        file_labels: Dict[str, FileLabel] = {}
        file_types: Dict[str, TypeExtraction] = {}
        file_families: Dict[str, Optional[str]] = {}
        for sha1 in dataset.files:
            label, detections = self._verdict(sha1)
            file_labels[sha1] = label
            if label == FileLabel.MALICIOUS:
                file_types[sha1] = extractor.extract(detections)
                file_families[sha1] = extract_family(detections)
        process_labels: Dict[str, FileLabel] = {}
        process_types: Dict[str, TypeExtraction] = {}
        for sha1 in dataset.processes:
            if sha1 in file_labels:
                label = file_labels[sha1]
                if label == FileLabel.MALICIOUS:
                    process_types[sha1] = file_types[sha1]
            else:
                label, detections = self._verdict(sha1)
                if label == FileLabel.MALICIOUS:
                    process_types[sha1] = extractor.extract(detections)
            process_labels[sha1] = label
        url_labels = {url: self.label_url(url) for url in dataset.urls}
        return LabeledDataset(
            dataset=dataset,
            file_labels=file_labels,
            process_labels=process_labels,
            url_labels=url_labels,
            file_types=file_types,
            process_types=process_types,
            file_families=file_families,
            type_resolution_fractions=extractor.resolution_fractions,
        )


def build_labeler(world, dataset: Optional[TelemetryDataset] = None,
                  query_day: float = FINAL_QUERY_DAY) -> GroundTruthLabeler:
    """Construct the labeling services for a synthetic world.

    ``world`` is a :class:`repro.synth.world.World`; the scanning-service
    first-seen times are anchored to each file's first reported download.
    """
    first_seen: Dict[str, float] = {}
    events = dataset.events if dataset is not None else world.corpus.events
    for event in events:
        first_seen.setdefault(event.file_sha1, event.timestamp)
    virustotal = VirusTotalSimulator(
        world.corpus.files, seed=world.config.seed, first_seen=first_seen
    )
    whitelist = FileWhitelist.build(
        world.corpus.files,
        world.corpus.benign_processes.keys(),
        seed=world.config.seed,
    )
    from .whitelists import AlexaService  # local import to avoid re-export noise

    alexa = AlexaService.build(world.corpus.domains)
    url_service = UrlReputationService.build(world.corpus.domains, alexa)
    return GroundTruthLabeler(virustotal, whitelist, url_service, query_day)


def label_world(world, dataset: Optional[TelemetryDataset] = None) -> LabeledDataset:
    """One call: build services for ``world`` and label ``dataset``.

    When ``dataset`` is omitted the world is collected first.
    """
    if dataset is None:
        dataset = world.collect()
    return build_labeler(world, dataset).label_dataset(dataset)

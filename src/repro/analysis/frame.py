"""The shared columnar session frame powering every table/figure analysis.

The paper's evaluation is ~30 tables and figures over 3M download
events; re-walking ``labeled.dataset.events`` as Python objects once
per table would cap the scale the full reproduction can reach on one
box.  This module generalizes the columnar bet of
:mod:`repro.core.columnar` (which interned the eight Table XV rule
features) to the *whole* analysis layer:

* a :class:`Vocabulary` interns every categorical identifier -- file /
  machine / process / URL hashes, effective 2LDs, signers, packers,
  families, executable names -- into dense integer codes with the same
  ``str()`` semantics as :class:`repro.core.columnar.FeatureCodec`;
* a :class:`SessionFrame` holds one int-coded column per event field
  (file, machine, process, URL, domain, month, timestamp) plus
  per-entity side tables (file label/type/family/signer/packer/size/
  prevalence, process label/type/category/browser/name, URL label,
  domain Alexa rank and rank bucket), so every analysis becomes a
  handful of NumPy group-bys and bincounts;
* construction is **single-pass and chunked**: events are ingested
  ``chunk_rows`` at a time from the in-memory dataset, so the build's
  working set beyond the (fixed-width) code columns is bounded by the
  chunk size;
* frames are **memoized by labeled-dataset content digest**
  (:func:`session_frame`): the ~30 analyses of a full report share one
  build.  The ``analysis.frame_build`` span/counter and the
  ``analysis.frame_hits`` counter make the "built exactly once per
  session" property observable (and CI-checkable).

Every analysis output has this one implementation.  The scalar loops it
replaced survive only as the test oracle in
``tests/analysis/scalar_reference.py``;
``tests/analysis/test_frame_equivalence.py`` proves output-for-output
equality against it.

Timestamps stay ``float64`` (int64-wide): the day-based event clock is
fractional, and the Figure 5 fidelity targets require bit-exact deltas
against the scalar reference.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..labeling.labels import (
    Browser,
    FileLabel,
    MalwareType,
    ProcessCategory,
    UrlLabel,
    browser_from_name,
    categorize_process_name,
)
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..telemetry.events import MONTH_STARTS, domain_of_url, effective_2ld

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..labeling.ground_truth import LabeledDataset
    from ..labeling.whitelists import AlexaService
    from ..telemetry.events import DownloadEvent, FileRecord, ProcessRecord

#: Default ingestion chunk: ~64k events of int codes is a few MB.
DEFAULT_CHUNK_ROWS = 65_536

#: Deterministic enum orderings.  A column value is the index into the
#: matching tuple; :data:`ABSENT` marks "not in the source mapping"
#: (e.g. an untyped file) and :data:`FAMILY_NONE` marks a file that *is*
#: in ``file_families`` but with a ``None`` (unlabeled) family.
FILE_LABELS: Tuple[FileLabel, ...] = tuple(FileLabel)
URL_LABELS: Tuple[UrlLabel, ...] = tuple(UrlLabel)
MALWARE_TYPES: Tuple[MalwareType, ...] = tuple(MalwareType)
PROCESS_CATEGORIES: Tuple[ProcessCategory, ...] = tuple(ProcessCategory)
BROWSERS: Tuple[Browser, ...] = tuple(Browser)

FILE_LABEL_CODE: Dict[FileLabel, int] = {v: i for i, v in enumerate(FILE_LABELS)}
URL_LABEL_CODE: Dict[UrlLabel, int] = {v: i for i, v in enumerate(URL_LABELS)}
MALWARE_TYPE_CODE: Dict[MalwareType, int] = {v: i for i, v in enumerate(MALWARE_TYPES)}
PROCESS_CATEGORY_CODE: Dict[ProcessCategory, int] = {
    v: i for i, v in enumerate(PROCESS_CATEGORIES)
}
BROWSER_CODE: Dict[Browser, int] = {v: i for i, v in enumerate(BROWSERS)}

ABSENT = -1
FAMILY_NONE = -2

#: Alexa rank bucket codes, aligned with
#: :data:`repro.core.features.ALEXA_BINS` ("top-1k", "1k-10k",
#: "10k-100k", "100k-1m", "unranked").
ALEXA_BUCKET_UNRANKED = 4

_MISSING = object()


class Vocabulary:
    """Interns one categorical column's values into dense integer codes.

    The single-column generalization of
    :class:`repro.core.columnar.FeatureCodec`: values are compared and
    stored by their ``str()`` form, codes are assigned in first-seen
    order (which makes them deterministic for a deterministic event
    stream), and :attr:`version` bumps whenever the vocabulary grows --
    the same contract compiled rule masks rely on.
    """

    __slots__ = ("_codes", "_values", "_version")

    def __init__(self) -> None:
        self._codes: Dict[str, int] = {}
        self._values: List[str] = []
        self._version = 0

    def __len__(self) -> int:
        return len(self._values)

    @property
    def version(self) -> int:
        """Bumped every time the vocabulary grows."""
        return self._version

    @property
    def values(self) -> Sequence[str]:
        """All interned values, in code order (do not mutate)."""
        return self._values

    def intern(self, value: object) -> int:
        """The code of ``value``, interning it if never seen."""
        text = str(value)
        code = self._codes.get(text)
        if code is None:
            code = len(self._values)
            self._codes[text] = code
            self._values.append(text)
            self._version += 1
        return code

    def code_of(self, value: object) -> Optional[int]:
        """The code of one value, or ``None`` if never interned."""
        return self._codes.get(str(value))

    def value_of(self, code: int) -> str:
        """The interned value behind one code (IndexError if unseen)."""
        return self._values[code]

    def decode(self, codes: Iterable[int]) -> List[str]:
        """Decode a sequence of codes back into their string values."""
        values = self._values
        return [values[code] for code in codes]


@dataclasses.dataclass
class SessionFrame:
    """Int-coded columnar view of one labeled session.

    Event columns are aligned with the dataset's (timestamp-sorted)
    event order; entity columns are aligned with the matching
    vocabulary's code order.  ``ABSENT`` (-1) marks values missing from
    the source mapping (unsigned files, untyped files, unlabeled URLs,
    non-browser processes); ``FAMILY_NONE`` (-2) marks a malicious file
    whose AVclass family came back ``None``.
    """

    # Vocabularies (identifier -> dense code).
    files: Vocabulary
    machines: Vocabulary
    processes: Vocabulary
    urls: Vocabulary
    domains: Vocabulary
    signers: Vocabulary
    packers: Vocabulary
    families: Vocabulary
    process_names: Vocabulary

    # Event columns (length n_events).
    event_file: "np.ndarray"       # int32 -> files
    event_machine: "np.ndarray"    # int32 -> machines
    event_process: "np.ndarray"    # int32 -> processes
    event_url: "np.ndarray"        # int32 -> urls
    event_domain: "np.ndarray"     # int32 -> domains
    event_month: "np.ndarray"      # int8, 0-based collection month
    event_timestamp: "np.ndarray"  # float64, days since collection start

    # File columns (length len(files)).
    file_label: "np.ndarray"       # int8 -> FILE_LABELS, ABSENT if unlabeled
    file_type: "np.ndarray"        # int8 -> MALWARE_TYPES, ABSENT if untyped
    file_family: "np.ndarray"      # int32 -> families / FAMILY_NONE / ABSENT
    file_signer: "np.ndarray"      # int32 -> signers, ABSENT if unsigned
    file_packer: "np.ndarray"      # int32 -> packers, ABSENT if unpacked
    file_size: "np.ndarray"        # int64 bytes
    file_prevalence: "np.ndarray"  # int64 distinct machines (0 if no events)

    # Process columns (length len(processes)).
    process_label: "np.ndarray"    # int8 -> FILE_LABELS, ABSENT if unlabeled
    process_type: "np.ndarray"     # int8 -> MALWARE_TYPES, ABSENT if untyped
    process_category: "np.ndarray" # int8 -> PROCESS_CATEGORIES
    process_browser: "np.ndarray"  # int8 -> BROWSERS, ABSENT if non-browser
    process_name: "np.ndarray"     # int32 -> process_names

    # URL columns (length len(urls)).
    url_label: "np.ndarray"        # int8 -> URL_LABELS, ABSENT if unlabeled
    url_domain: "np.ndarray"       # int32 -> domains (url -> its e2ld)

    # Alexa side table, present only after :meth:`attach_alexa`.
    domain_rank: Optional["np.ndarray"] = None        # int64, ABSENT unranked
    event_alexa_bucket: Optional["np.ndarray"] = None  # int8 -> ALEXA_BINS
    alexa_digest: Optional[str] = None

    chunk_rows: int = DEFAULT_CHUNK_ROWS

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return int(self.event_file.shape[0])

    @property
    def n_files(self) -> int:
        return len(self.files)

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    @property
    def n_processes(self) -> int:
        return len(self.processes)

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    @property
    def has_alexa(self) -> bool:
        """Whether the Alexa rank side table is attached."""
        return self.domain_rank is not None

    # ------------------------------------------------------------------
    # Cached per-event gathers (label/type of the downloaded file are
    # needed by most analyses; gather once per frame)
    # ------------------------------------------------------------------

    def event_file_label(self) -> "np.ndarray":
        """Per-event label code of the downloaded file."""
        return self._gather("event_file_label",
                            lambda: self.file_label[self.event_file])

    def event_file_type(self) -> "np.ndarray":
        """Per-event behavior-type code of the downloaded file."""
        return self._gather("event_file_type",
                            lambda: self.file_type[self.event_file])

    def event_process_category(self) -> "np.ndarray":
        """Per-event category code of the downloading process."""
        return self._gather(
            "event_process_category",
            lambda: self.process_category[self.event_process],
        )

    def active_process_mask(self) -> "np.ndarray":
        """Per-process bool: initiated at least one reported download."""
        def build() -> "np.ndarray":
            mask = np.zeros(self.n_processes, dtype=bool)
            if self.n_events:
                mask[np.unique(self.event_process)] = True
            return mask
        return self._gather("active_process_mask", build)

    def _gather(self, key: str, build) -> "np.ndarray":
        cache = self.__dict__.setdefault("_gathers", {})
        value = cache.get(key)
        if value is None:
            value = build()
            cache[key] = value
        return value

    # ------------------------------------------------------------------
    # Alexa side table
    # ------------------------------------------------------------------

    def attach_alexa(self, alexa: "AlexaService") -> None:
        """Attach (or replace) the per-domain Alexa rank side table.

        Cheap: one rank lookup per *distinct* domain, no event rescan,
        so a cached frame can be upgraded in place when a caller needs
        the Figure 3/6 rank analyses.
        """
        n = self.n_domains
        ranks = np.full(n, ABSENT, dtype=np.int64)
        for code, domain in enumerate(self.domains.values):
            rank = alexa.rank(domain)
            if rank is not None:
                ranks[code] = rank
        buckets = np.full(n, ALEXA_BUCKET_UNRANKED, dtype=np.int8)
        ranked = ranks >= 0
        buckets[ranked & (ranks <= 1_000)] = 0
        buckets[ranked & (ranks > 1_000) & (ranks <= 10_000)] = 1
        buckets[ranked & (ranks > 10_000) & (ranks <= 100_000)] = 2
        buckets[ranked & (ranks > 100_000) & (ranks <= 1_000_000)] = 3
        self.domain_rank = ranks
        self.event_alexa_bucket = buckets[self.event_domain]
        self.alexa_digest = alexa.content_digest()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Total bytes held by the frame's numpy columns."""
        total = 0
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                total += value.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"SessionFrame(events={self.n_events}, files={self.n_files}, "
            f"machines={self.n_machines}, processes={self.n_processes}, "
            f"domains={self.n_domains}, alexa={self.has_alexa}, "
            f"~{self.nbytes() / 1e6:.1f}MB)"
        )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


class _FrameBuilder:
    """Chunked single-pass ingestion of an event stream into columns."""

    def __init__(self, chunk_rows: int) -> None:
        self.chunk_rows = chunk_rows
        self.files = Vocabulary()
        self.machines = Vocabulary()
        self.processes = Vocabulary()
        self.urls = Vocabulary()
        self.domains = Vocabulary()
        # url code -> domain code, filled when a URL is first seen so the
        # (comparatively expensive) URL parse runs once per distinct URL.
        self._url_domain: List[int] = []
        self._cols: Dict[str, List["np.ndarray"]] = {
            name: [] for name in
            ("file", "machine", "process", "url", "domain", "ts")
        }

    def ingest(self, chunk: Sequence["DownloadEvent"]) -> None:
        n = len(chunk)
        if not n:
            return
        file_codes = np.empty(n, dtype=np.int32)
        machine_codes = np.empty(n, dtype=np.int32)
        process_codes = np.empty(n, dtype=np.int32)
        url_codes = np.empty(n, dtype=np.int32)
        domain_codes = np.empty(n, dtype=np.int32)
        timestamps = np.empty(n, dtype=np.float64)
        file_intern = self.files.intern
        machine_intern = self.machines.intern
        process_intern = self.processes.intern
        url_intern = self.urls.intern
        domain_intern = self.domains.intern
        url_domain = self._url_domain
        for i, event in enumerate(chunk):
            file_codes[i] = file_intern(event.file_sha1)
            machine_codes[i] = machine_intern(event.machine_id)
            process_codes[i] = process_intern(event.process_sha1)
            url = event.url
            ucode = url_intern(url)
            if ucode == len(url_domain):
                url_domain.append(
                    domain_intern(effective_2ld(domain_of_url(url)))
                )
            url_codes[i] = ucode
            domain_codes[i] = url_domain[ucode]
            timestamps[i] = event.timestamp
        self._cols["file"].append(file_codes)
        self._cols["machine"].append(machine_codes)
        self._cols["process"].append(process_codes)
        self._cols["url"].append(url_codes)
        self._cols["domain"].append(domain_codes)
        self._cols["ts"].append(timestamps)

    def _column(self, name: str, dtype) -> "np.ndarray":
        parts = self._cols[name]
        if not parts:
            return np.empty(0, dtype=dtype)
        return np.concatenate(parts).astype(dtype, copy=False)

    def finish(
        self,
        file_table: Dict[str, "FileRecord"],
        process_table: Dict[str, "ProcessRecord"],
        file_labels: Dict[str, FileLabel],
        process_labels: Dict[str, FileLabel],
        url_labels: Dict[str, UrlLabel],
        file_types: Dict[str, object],
        process_types: Dict[str, object],
        file_families: Dict[str, Optional[str]],
    ) -> SessionFrame:
        # Cover table-only hashes, in sorted order so their codes do not
        # depend on the tables' insertion order.
        for sha in sorted(file_table):
            self.files.intern(sha)
        for sha in sorted(process_table):
            self.processes.intern(sha)

        event_file = self._column("file", np.int32)
        event_machine = self._column("machine", np.int32)
        event_process = self._column("process", np.int32)
        event_url = self._column("url", np.int32)
        event_domain = self._column("domain", np.int32)
        event_timestamp = self._column("ts", np.float64)
        # Vectorized month_of: first boundary strictly above the stamp.
        event_month = np.searchsorted(
            np.asarray(MONTH_STARTS[1:], dtype=np.float64),
            event_timestamp,
            side="right",
        ).astype(np.int8)

        signers = Vocabulary()
        packers = Vocabulary()
        families = Vocabulary()
        process_names = Vocabulary()

        n_files = len(self.files)
        file_label = np.full(n_files, ABSENT, dtype=np.int8)
        file_type = np.full(n_files, ABSENT, dtype=np.int8)
        file_family = np.full(n_files, ABSENT, dtype=np.int32)
        file_signer = np.full(n_files, ABSENT, dtype=np.int32)
        file_packer = np.full(n_files, ABSENT, dtype=np.int32)
        file_size = np.zeros(n_files, dtype=np.int64)
        for code, sha in enumerate(self.files.values):
            record = file_table[sha]
            label = file_labels.get(sha)
            if label is not None:
                file_label[code] = FILE_LABEL_CODE[label]
            extraction = file_types.get(sha)
            if extraction is not None:
                file_type[code] = MALWARE_TYPE_CODE[extraction.mtype]
            family = file_families.get(sha, _MISSING)
            if family is not _MISSING:
                file_family[code] = (
                    FAMILY_NONE if family is None else families.intern(family)
                )
            if record.signer is not None:
                file_signer[code] = signers.intern(record.signer)
            if record.packer is not None:
                file_packer[code] = packers.intern(record.packer)
            file_size[code] = record.size_bytes

        n_procs = len(self.processes)
        process_label = np.full(n_procs, ABSENT, dtype=np.int8)
        process_type = np.full(n_procs, ABSENT, dtype=np.int8)
        process_category = np.full(
            n_procs, PROCESS_CATEGORY_CODE[ProcessCategory.OTHER],
            dtype=np.int8,
        )
        process_browser = np.full(n_procs, ABSENT, dtype=np.int8)
        process_name = np.full(n_procs, ABSENT, dtype=np.int32)
        for code, sha in enumerate(self.processes.values):
            record = process_table[sha]
            label = process_labels.get(sha)
            if label is not None:
                process_label[code] = FILE_LABEL_CODE[label]
            extraction = process_types.get(sha)
            if extraction is not None:
                process_type[code] = MALWARE_TYPE_CODE[extraction.mtype]
            name = record.executable_name
            process_category[code] = PROCESS_CATEGORY_CODE[
                categorize_process_name(name)
            ]
            browser = browser_from_name(name)
            if browser is not None:
                process_browser[code] = BROWSER_CODE[browser]
            process_name[code] = process_names.intern(name)

        n_urls = len(self.urls)
        url_label = np.full(n_urls, ABSENT, dtype=np.int8)
        for code, url in enumerate(self.urls.values):
            label = url_labels.get(url)
            if label is not None:
                url_label[code] = URL_LABEL_CODE[label]
        url_domain = np.asarray(self._url_domain, dtype=np.int32)
        if url_domain.shape[0] != n_urls:  # pragma: no cover - invariant
            raise AssertionError("url/domain mapping out of sync")

        file_prevalence = np.zeros(n_files, dtype=np.int64)
        if event_file.shape[0]:
            pair_files, _ = unique_pairs(
                event_file, event_machine, len(self.machines)
            )
            file_prevalence += np.bincount(pair_files, minlength=n_files)

        return SessionFrame(
            files=self.files,
            machines=self.machines,
            processes=self.processes,
            urls=self.urls,
            domains=self.domains,
            signers=signers,
            packers=packers,
            families=families,
            process_names=process_names,
            event_file=event_file,
            event_machine=event_machine,
            event_process=event_process,
            event_url=event_url,
            event_domain=event_domain,
            event_month=event_month,
            event_timestamp=event_timestamp,
            file_label=file_label,
            file_type=file_type,
            file_family=file_family,
            file_signer=file_signer,
            file_packer=file_packer,
            file_size=file_size,
            file_prevalence=file_prevalence,
            process_label=process_label,
            process_type=process_type,
            process_category=process_category,
            process_browser=process_browser,
            process_name=process_name,
            url_label=url_label,
            url_domain=url_domain,
            chunk_rows=self.chunk_rows,
        )


def build_frame(
    labeled: "LabeledDataset",
    alexa: Optional["AlexaService"] = None,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> SessionFrame:
    """Build a :class:`SessionFrame` in one chunked pass over the events.

    ``labeled.dataset`` is ingested ``chunk_rows`` events at a time.
    ``alexa`` attaches the per-domain rank side table (Figures 3/6 and
    the ``alexa_bin`` rule feature); it can also be attached later via
    :meth:`SessionFrame.attach_alexa`.
    """
    if chunk_rows <= 0:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    builder = _FrameBuilder(chunk_rows)
    events = labeled.dataset.events
    for start in range(0, len(events), chunk_rows):
        builder.ingest(events[start:start + chunk_rows])
    frame = builder.finish(
        file_table=dict(labeled.dataset.files),
        process_table=dict(labeled.dataset.processes),
        file_labels=labeled.file_labels,
        process_labels=labeled.process_labels,
        url_labels=labeled.url_labels,
        file_types=labeled.file_types,
        process_types=labeled.process_types,
        file_families=labeled.file_families,
    )
    if alexa is not None:
        frame.attach_alexa(alexa)
    return frame


# ----------------------------------------------------------------------
# Session-level memoization
# ----------------------------------------------------------------------

_FRAME_CACHE: Dict[str, SessionFrame] = {}


def session_frame(
    labeled: "LabeledDataset",
    alexa: Optional["AlexaService"] = None,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> SessionFrame:
    """The memoized frame for one labeled dataset (built at most once).

    Keyed by :meth:`LabeledDataset.content_digest`, so every analysis of
    a ``repro report --all`` run shares a single build -- observable as
    ``analysis.frame_build == 1`` next to ~30 ``analysis.frame_hits``.
    A cached frame built without Alexa ranks is upgraded in place (one
    rank lookup per distinct domain, no event rescan) when a caller
    needs them.
    """
    key = labeled.content_digest()
    frame = _FRAME_CACHE.get(key)
    if frame is not None:
        if alexa is not None and frame.alexa_digest != alexa.content_digest():
            frame.attach_alexa(alexa)
        obs_metrics.counter(
            "analysis.frame_hits",
            "session_frame calls served from the frame memo",
        ).inc()
        return frame
    with trace.span(
        "analysis.frame_build", digest=key[:12], chunk_rows=chunk_rows
    ) as span:
        frame = build_frame(labeled, alexa, chunk_rows=chunk_rows)
        span.set_attribute("events", frame.n_events)
        span.set_attribute("frame_mb", round(frame.nbytes() / 1e6, 2))
    obs_metrics.counter(
        "analysis.frame_build", "SessionFrames built from scratch"
    ).inc()
    obs_metrics.gauge(
        "analysis.frame_bytes", "Bytes held by the last built frame's columns"
    ).set(frame.nbytes())
    _FRAME_CACHE[key] = frame
    return frame


def clear_frame_cache() -> None:
    """Drop all memoized session frames."""
    _FRAME_CACHE.clear()
    obs_metrics.counter(
        "cache.frame_clears", "clear_frame_cache invocations"
    ).inc()


# ----------------------------------------------------------------------
# Group-by helpers shared by the analyses
# ----------------------------------------------------------------------


def unique_pairs(
    a: "np.ndarray", b: "np.ndarray", cardinality_b: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Distinct ``(a, b)`` pairs as two aligned int64 code arrays.

    ``cardinality_b`` must exceed every value of ``b``; pairs come back
    sorted by ``(a, b)``.
    """
    if a.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    nb = np.int64(max(cardinality_b, 1))
    key = a.astype(np.int64) * nb + b.astype(np.int64)
    unique = np.unique(key)
    return unique // nb, unique % nb


def unique_triples(
    a: "np.ndarray",
    b: "np.ndarray",
    c: "np.ndarray",
    cardinality_b: int,
    cardinality_c: int,
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Distinct ``(a, b, c)`` triples as three aligned int64 arrays."""
    if a.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    nb = np.int64(max(cardinality_b, 1))
    nc = np.int64(max(cardinality_c, 1))
    key = (a.astype(np.int64) * nb + b.astype(np.int64)) * nc + c.astype(
        np.int64
    )
    unique = np.unique(key)
    bc = unique % (nb * nc)
    return unique // (nb * nc), bc // nc, bc % nc


def counts_per_code(
    codes: "np.ndarray", cardinality: int
) -> "np.ndarray":
    """Occurrences of each code in ``codes`` (length ``cardinality``)."""
    if codes.shape[0] == 0:
        return np.zeros(cardinality, dtype=np.int64)
    return np.bincount(codes, minlength=cardinality).astype(
        np.int64, copy=False
    )


def code_count_dict(
    vocab: Vocabulary, counts: "np.ndarray"
) -> Dict[str, int]:
    """``{decoded value: count}`` for the codes with a non-zero count."""
    present = np.nonzero(counts)[0]
    values = vocab.values
    return {values[code]: int(counts[code]) for code in present}

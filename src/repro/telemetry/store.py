"""Versioned, checksummed, streaming on-disk dataset store.

The store has one writer and one reader.  Every store directory -- a
``repro export``, a :func:`save_dataset` call or a streamed ``repro
serve`` run -- is written by an :class:`AppendSession`: event parts are
appended one at a time, then :meth:`AppendSession.commit` writes the
metadata tables and, last, the manifest.  Every read resolves its parts
from the manifest alone and streams them through one part reader that
verifies checksums and row counts as the bytes go by.

Layout of a store directory::

    manifest.json               -- schema version, table row counts, per-part
                                   SHA-256 + byte/row counts, dataset digest
    events-00000.jsonl[.gz]     -- event parts, in report (timestamp) order
    files-00000.jsonl[.gz]      -- file metadata table
    processes-00000.jsonl[.gz]  -- process metadata table
    ingest.json                 -- checkpoint of an uncommitted append session
    quarantine.jsonl            -- sidecar of rows rejected by lenient reads
    labels.jsonl                -- ground truth beside a ``repro export``

Every part holds one JSON object per line: the row's fields as keys, in
field-declaration order (:func:`repro.telemetry.events.row_dict`),
serialized by ``json.dumps`` with its defaults.

Guarantees:

* **Atomic commits.**  Every part (and the manifest) is written to a
  temp file and ``os.replace``-renamed into place -- the fd+rename idiom
  of :func:`repro.synth.cache._disk_store` -- and the manifest is
  written *last*.  Reads refuse a directory without a manifest, so a
  crash mid-save or mid-overwrite never yields a directory that loads
  as a valid smaller dataset.
* **Deterministic bytes.**  Rows are serialized by that one row
  contract, in dataset order, and gzip members are written with
  ``mtime=0``: identical datasets export byte-identical stores.
* **Verified reads.**  ``strict=True`` (the default) fails fast with
  ``<file>:<line>`` context on any malformed row, duplicate sha1,
  truncated or checksum-mismatched part, and cross-checks the reloaded
  dataset's :meth:`~repro.telemetry.dataset.TelemetryDataset.content_digest`
  against the manifest.  All strict failures are :class:`StoreError`, a
  :class:`ValueError` subclass, honoring the documented load contract;
  a missing manifest or part raises :class:`FileNotFoundError`.
* **Graceful degradation.**  ``strict=False`` quarantines malformed or
  orphaned rows to ``quarantine.jsonl``, keeps the first of duplicate
  sha1 rows (counting and warning), and skips the unreadable remainder
  of a corrupt part -- always producing a valid (possibly smaller)
  dataset plus :class:`ReadStats` telling you exactly what was lost.

Reads and writes report ``store.*`` metrics through
:mod:`repro.obs.metrics` and run under ``store.save`` / ``store.load``
trace spans.  A missing or corrupt ``manifest.json`` raises in both
modes.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import tempfile
import warnings
import zlib
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

from ..obs import metrics as obs_metrics
from ..obs import trace
from .dataset import (
    TelemetryDataset,
    event_digest_line,
    file_digest_line,
    process_digest_line,
)
from .events import DownloadEvent, FileRecord, ProcessRecord, row_dict

__all__ = [
    "CHECKPOINT_FILE",
    "EXPORT_PART_ROWS",
    "LABELS_FILE",
    "MANIFEST_FILE",
    "QUARANTINE_FILE",
    "SCHEMA",
    "AppendSession",
    "PartInfo",
    "ReadStats",
    "StoreError",
    "StoreManifest",
    "load_dataset",
    "open_append_session",
    "quarantine_record",
    "read_manifest",
    "save_dataset",
]

#: Manifest schema identifier; bump on incompatible layout changes.
SCHEMA = "telemetry-store-v1"

MANIFEST_FILE = "manifest.json"
QUARANTINE_FILE = "quarantine.jsonl"

#: Append-session checkpoint sidecar (see :class:`AppendSession`).
CHECKPOINT_FILE = "ingest.json"

#: Ground-truth labels ``repro export`` writes beside the store.  A fresh
#: session removes them with the old store: they describe its corpus.
LABELS_FILE = "labels.jsonl"

_TABLES = ("events", "files", "processes")
_READ_CHUNK = 1 << 20
_QUARANTINE_RAW_LIMIT = 500

#: Events per part of a :func:`save_dataset` export -- the analysis frame
#: builder's chunk size -- so an export encodes one part's rows at a time.
EXPORT_PART_ROWS = 65_536


class StoreError(ValueError):
    """A strict-mode dataset-store failure.

    Subclasses :class:`ValueError` so the long-documented
    ``load_dataset`` error contract ("ValueError on malformed rows")
    holds for *every* failure mode; messages always carry
    ``<file>[:<line>]`` context.
    """


@dataclasses.dataclass(frozen=True)
class PartInfo:
    """Manifest record for one on-disk JSONL part."""

    name: str
    table: str
    rows: int
    bytes: int
    sha256: str

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "table": self.table, "rows": self.rows,
                "bytes": self.bytes, "sha256": self.sha256}

    @classmethod
    def from_dict(cls, entry: Dict[str, Any]) -> "PartInfo":
        """Parse one part entry of a manifest or a checkpoint.

        Raises ``KeyError``/``TypeError``/``ValueError`` on a malformed
        entry; callers wrap them with their file's context.
        """
        return cls(
            name=str(entry["name"]),
            table=str(entry["table"]),
            rows=int(entry["rows"]),
            bytes=int(entry["bytes"]),
            sha256=str(entry["sha256"]),
        )


@dataclasses.dataclass(frozen=True)
class StoreManifest:
    """Parsed, validated ``manifest.json``."""

    schema: str
    compress: bool
    counts: Dict[str, int]
    content_digest: str
    parts: Tuple[PartInfo, ...]

    def parts_for(self, table: str) -> List[PartInfo]:
        """The parts of one table, in manifest (= write) order."""
        return [part for part in self.parts if part.table == table]

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["parts"] = [part.to_dict() for part in self.parts]
        return payload


@dataclasses.dataclass
class ReadStats:
    """What one store read actually consumed, kept and rejected.

    Pass an instance to :func:`load_dataset` to collect per-call
    telemetry (the process-wide ``store.*`` metrics are updated
    regardless).
    """

    bytes_read: int = 0
    rows_read: int = 0
    rows_quarantined: int = 0
    rows_duplicate: int = 0
    parts_read: int = 0
    checksum_failures: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


class _HashingWriter:
    """Tees writes into a SHA-256 and a byte count on the way to disk."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self.hasher = hashlib.sha256()
        self.bytes_written = 0

    def write(self, data: bytes) -> int:
        self.hasher.update(data)
        self.bytes_written += len(data)
        return self._handle.write(data)

    def flush(self) -> None:
        self._handle.flush()


def _write_part(path: Path, lines: Iterable[bytes], compress: bool) -> Tuple[int, str]:
    """Atomically write one JSONL part; returns (bytes, sha256) on disk.

    The checksum covers the final on-disk bytes (compressed, when
    ``compress``), so readers can verify without decompressing first.
    ``mtime=0`` keeps gzip output deterministic.
    """
    fd, temp_name = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as raw:
            writer = _HashingWriter(raw)
            if compress:
                with gzip.GzipFile(fileobj=writer, mode="wb", mtime=0) as zipped:
                    for line in lines:
                        zipped.write(line)
            else:
                for line in lines:
                    writer.write(line)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    os.replace(temp_name, path)
    return writer.bytes_written, writer.hasher.hexdigest()


def _encode_row(record: Any) -> bytes:
    return (json.dumps(row_dict(record)) + "\n").encode("utf-8")


def _write_table(
    directory: Path,
    table: str,
    index: int,
    records: Iterable[Any],
    compress: bool,
) -> PartInfo:
    """Atomically write ``records`` as part ``index`` of ``table``."""
    name = f"{table}-{index:05d}{'.jsonl.gz' if compress else '.jsonl'}"
    lines = [_encode_row(record) for record in records]
    nbytes, digest = _write_part(directory / name, lines, compress)
    return PartInfo(name, table, len(lines), nbytes, digest)


def quarantine_record(directory: Union[str, Path], record: Dict[str, Any]) -> None:
    """Append one damage record to the store's quarantine sidecar.

    Shared by the lenient readers and the streaming ingestion service's
    poison-event path.  Quarantine is best-effort bookkeeping: a
    read-only store directory must never make the caller fail.
    """
    try:
        with open(
            Path(directory) / QUARANTINE_FILE, "a", encoding="utf-8"
        ) as handle:
            handle.write(json.dumps(record) + "\n")
    except OSError:
        pass


def _remove_existing(directory: Path) -> None:
    """Drop a previous store, and an export's labels beside it, so its
    parts can never be read again.

    The manifest goes first: should cleanup be interrupted, every read
    refuses the directory instead of loading the parts that are left.
    """
    stale = [
        directory / MANIFEST_FILE,
        directory / QUARANTINE_FILE,
        directory / CHECKPOINT_FILE,
        directory / LABELS_FILE,
    ]
    for table in _TABLES:
        stale.extend(directory.glob(f"{table}-[0-9]*.jsonl*"))
    for path in stale:
        try:
            path.unlink()
        except OSError:
            pass


def save_dataset(
    dataset: TelemetryDataset,
    directory: Union[str, Path],
    *,
    compress: bool = False,
) -> Path:
    """Write ``dataset`` to ``directory`` (created if missing) atomically.

    One :class:`AppendSession`: the events go in parts of
    :data:`EXPORT_PART_ROWS`, then the commit writes the metadata tables
    and the manifest.  ``compress=True`` gzips every part
    (deterministically).  Any previous store in the directory is
    replaced.  Returns the directory path.
    """
    path = Path(directory)
    with trace.span("store.save", compress=compress) as span:
        session = open_append_session(path, compress=compress)
        events = dataset.events
        for start in range(0, len(events), EXPORT_PART_ROWS):
            session.append_events(events[start:start + EXPORT_PART_ROWS])
        manifest = session.commit(dataset.files, dataset.processes)
        rows = sum(part.rows for part in manifest.parts)
        nbytes = sum(part.bytes for part in manifest.parts)
        span.set_attribute("rows", rows)
        span.set_attribute("bytes", nbytes)
    obs_metrics.counter(
        "store.rows_written", "Rows written to dataset stores"
    ).inc(rows)
    obs_metrics.counter(
        "store.bytes_written", "On-disk bytes written to dataset stores"
    ).inc(nbytes)
    return path


# ----------------------------------------------------------------------
# Append sessions (the one writer)
# ----------------------------------------------------------------------


class AppendSession:
    """Incremental, crash-recoverable event ingestion into a store.

    The store's only writer.  The streaming ingestion service
    (:mod:`repro.serve`) appends reported events in flush-sized batches
    over a long run, and the directory must stay recoverable at every
    instant; :func:`save_dataset` appends a whole dataset in
    :data:`EXPORT_PART_ROWS` parts.  The protocol::

        session = open_append_session(directory)
        session.append_events(batch)        # repeatedly, one part each
        manifest = session.commit(files, processes)

    Guarantees:

    * **Atomic batch commits.**  Every :meth:`append_events` call writes
      one JSONL part (temp-file + rename) and *then* atomically replaces
      the checkpoint sidecar (``ingest.json``) recording the committed
      part list.  The checkpoint replace is the batch's commit point: a crash
      between the two leaves an orphan part that is overwritten after
      resume, never a checkpoint pointing at missing data.
    * **Replay-based resume.**  ``open_append_session(..., resume=True)``
      reloads the checkpoint, streams every committed part through the
      store's part reader in strict mode (SHA-256, byte and row counts,
      row schema), and rebuilds the incremental content digest.
      :attr:`events_committed` then tells a deterministic producer how
      many *reported* events to skip re-appending while it replays its
      source to rebuild in-memory filter state.
    * **Digest-exact commits.**  :meth:`commit` writes the metadata
      tables (narrowed to hashes actually referenced, in first-seen
      order) and then the manifest, whose ``content_digest`` equals
      :meth:`~repro.telemetry.dataset.TelemetryDataset.content_digest`
      of the equivalent batch-collected dataset -- the streaming
      equivalence oracle -- without ever holding all events in memory.

    ``fault_hook``, when given, is invoked with a stage string (e.g.
    ``"part_written:events-00002.jsonl"``) after each part lands but
    before its checkpoint commits; the fault-injection tests raise from
    it to exercise the crash window, or sleep in it to slow the writer.
    """

    def __init__(
        self,
        directory: Path,
        compress: bool,
        fault_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.directory = directory
        self.compress = compress
        self._fault_hook = fault_hook
        self._parts: List[PartInfo] = []
        self._hasher = hashlib.sha256()
        self._file_shas: Dict[str, None] = {}
        self._proc_shas: Dict[str, None] = {}
        self.events_committed = 0
        self._committed = False

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def parts(self) -> Tuple[PartInfo, ...]:
        """Checkpointed event parts, in append order."""
        return tuple(self._parts)

    def _write_checkpoint(self) -> None:
        payload = {
            "schema": SCHEMA,
            "kind": "append-checkpoint",
            "compress": self.compress,
            "events": self.events_committed,
            "parts": [part.to_dict() for part in self._parts],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_part(
            self.directory / CHECKPOINT_FILE,
            [text.encode("utf-8")],
            compress=False,
        )

    def append_events(self, events) -> Optional[PartInfo]:
        """Durably append one batch of reported events as a new part.

        Events must already be in report (timestamp) order and must
        never be re-appended -- resume skips via
        :attr:`events_committed`.  Returns the committed part, or
        ``None`` for an empty batch (no-op).
        """
        if self._committed:
            raise StoreError(
                f"{CHECKPOINT_FILE}: append after commit is not allowed"
            )
        batch = list(events)
        if not batch:
            return None
        part = _write_table(
            self.directory, "events", len(self._parts), batch, self.compress
        )
        if self._fault_hook is not None:
            self._fault_hook(f"part_written:{part.name}")
        for event in batch:
            self._hasher.update(event_digest_line(event))
            self._file_shas.setdefault(event.file_sha1)
            self._proc_shas.setdefault(event.process_sha1)
        self._parts.append(part)
        self.events_committed += len(batch)
        self._write_checkpoint()
        obs_metrics.counter(
            "store.rows_appended", "Rows appended by store append sessions"
        ).inc(len(batch))
        return part

    def quarantine(self, location: str, error: str,
                   raw: Optional[str] = None) -> None:
        """Record one poison row in the store's quarantine sidecar."""
        record: Dict[str, Any] = {"location": location, "error": error}
        if raw is not None:
            record["raw"] = raw[:_QUARANTINE_RAW_LIMIT]
        quarantine_record(self.directory, record)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(
        self,
        files: "Dict[str, FileRecord]",
        processes: "Dict[str, ProcessRecord]",
    ) -> StoreManifest:
        """Seal the session: metadata tables + manifest (manifest last).

        ``files``/``processes`` may be supersets; they are narrowed to
        the hashes referenced by appended events, in first-seen order
        (matching :meth:`CollectionServer.dataset` semantics).  Orphan
        event parts from an interrupted pre-resume run are deleted so
        they can never shadow the manifest.  The returned manifest's
        ``content_digest`` matches the batch pipeline's dataset digest.
        """
        if self._committed:
            raise StoreError(f"{MANIFEST_FILE}: session already committed")
        if not self._parts:
            # An empty table still gets one (empty) part, so readers can
            # tell "no events" from "missing file".
            self._parts.append(
                _write_table(self.directory, "events", 0, [], self.compress)
            )
            self._write_checkpoint()
        narrowed_files = {sha: files[sha] for sha in self._file_shas}
        narrowed_procs = {sha: processes[sha] for sha in self._proc_shas}
        parts = [
            *self._parts,
            _write_table(self.directory, "files", 0,
                         narrowed_files.values(), self.compress),
            _write_table(self.directory, "processes", 0,
                         narrowed_procs.values(), self.compress),
        ]
        hasher = self._hasher.copy()
        for sha in sorted(narrowed_files):
            hasher.update(file_digest_line(narrowed_files[sha]))
        for sha in sorted(narrowed_procs):
            hasher.update(process_digest_line(narrowed_procs[sha]))
        manifest = StoreManifest(
            schema=SCHEMA,
            compress=self.compress,
            counts={
                "events": self.events_committed,
                "files": len(narrowed_files),
                "processes": len(narrowed_procs),
            },
            content_digest=hasher.hexdigest(),
            parts=tuple(parts),
        )
        known = {part.name for part in parts}
        for path in self.directory.glob("events-[0-9]*.jsonl*"):
            if path.name not in known:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - cleanup race
                    pass
        payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
        _write_part(
            self.directory / MANIFEST_FILE,
            [payload.encode("utf-8")],
            compress=False,
        )
        try:
            (self.directory / CHECKPOINT_FILE).unlink()
        except OSError:  # pragma: no cover - checkpoint already gone
            pass
        self._committed = True
        obs_metrics.counter(
            "store.sessions_committed", "Append sessions sealed by commit"
        ).inc()
        return manifest

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------

    def _resume_from_checkpoint(self) -> None:
        """Reload committed parts, verifying bytes and rebuilding digests."""
        path = self.directory / CHECKPOINT_FILE
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"{CHECKPOINT_FILE}: unreadable checkpoint: {exc}"
            ) from exc
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema != SCHEMA:
            raise StoreError(
                f"{CHECKPOINT_FILE}: unsupported checkpoint schema {schema!r}"
            )
        self.compress = bool(payload.get("compress"))
        try:
            listed = [
                PartInfo.from_dict(entry)
                for entry in payload.get("parts") or []
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(
                f"{CHECKPOINT_FILE}: malformed checkpoint: {exc}"
            ) from exc
        ctx = _ReadContext(self.directory, strict=True, stats=None)
        for name, lineno, obj, raw in _iter_parts(ctx, listed):
            event = _build_record(
                ctx, DownloadEvent, f"{name}:{lineno}", obj, raw
            )
            self._hasher.update(event_digest_line(event))
            self._file_shas.setdefault(event.file_sha1)
            self._proc_shas.setdefault(event.process_sha1)
        self._parts = listed
        self.events_committed = sum(part.rows for part in listed)
        declared = payload.get("events")
        if declared is not None and int(declared) != self.events_committed:
            raise StoreError(
                f"{CHECKPOINT_FILE}: event count {declared!r} disagrees "
                f"with part rows ({self.events_committed})"
            )


def open_append_session(
    directory: Union[str, Path],
    *,
    compress: bool = False,
    resume: bool = False,
    fault_hook: Optional[Callable[[str], None]] = None,
) -> AppendSession:
    """Open (or resume) a streaming :class:`AppendSession`.

    ``resume=False`` starts fresh, removing any previous store in the
    directory.  ``resume=True`` picks up from the last checkpoint --
    verifying every committed part, with :class:`StoreError` for a
    damaged one and :class:`FileNotFoundError` for a missing one -- or
    starts fresh when no checkpoint exists yet; resuming a directory
    that was already *committed* (manifest present, checkpoint gone)
    raises, since a sealed store must not be silently appended to.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    session = AppendSession(path, compress, fault_hook)
    if resume:
        if (path / CHECKPOINT_FILE).is_file():
            session._resume_from_checkpoint()
            obs_metrics.counter(
                "store.sessions_resumed",
                "Append sessions resumed from a checkpoint",
            ).inc()
            return session
        if (path / MANIFEST_FILE).is_file():
            raise StoreError(
                f"{MANIFEST_FILE}: store already committed; cannot resume "
                f"an append session into it"
            )
    _remove_existing(path)
    return session


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


class _HashingReader:
    """Binary reader wrapper hashing/counting the on-disk bytes."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self.hasher = hashlib.sha256()
        self.bytes_read = 0

    def read(self, size: int = -1) -> bytes:
        data = self._handle.read(size)
        if data:
            self.hasher.update(data)
            self.bytes_read += len(data)
        return data

    def readable(self) -> bool:  # pragma: no cover - gzip plumbing
        return True

    def seekable(self) -> bool:  # pragma: no cover - gzip plumbing
        return False

    def close(self) -> None:
        self._handle.close()


def _iter_lines(read: Callable[[int], bytes]) -> Iterator[bytes]:
    """Newline-split a chunked byte stream without loading it whole."""
    pending = b""
    while True:
        chunk = read(_READ_CHUNK)
        if not chunk:
            break
        pending += chunk
        lines = pending.split(b"\n")
        pending = lines.pop()
        for line in lines:
            yield line
    if pending:
        yield pending


class _ReadContext:
    """Shared strict/lenient fault handling for one read operation."""

    def __init__(
        self,
        directory: Union[str, Path],
        strict: bool,
        stats: Optional[ReadStats],
    ) -> None:
        self.directory = Path(directory)
        self.strict = strict
        self.stats = stats if stats is not None else ReadStats()

    def _quarantine(self, record: Dict[str, Any]) -> None:
        quarantine_record(self.directory, record)

    def fault(
        self,
        location: str,
        error: str,
        raw: Optional[bytes] = None,
        rows_lost: int = 1,
    ) -> None:
        """One unusable row (or part remainder): raise or quarantine."""
        if self.strict:
            raise StoreError(f"{location}: {error}")
        self.stats.rows_quarantined += rows_lost
        obs_metrics.counter(
            "store.rows_quarantined",
            "Rows quarantined by lenient dataset-store reads",
        ).inc(rows_lost)
        record: Dict[str, Any] = {"location": location, "error": error}
        if raw is not None:
            record["raw"] = raw.decode("utf-8", "replace")[:_QUARANTINE_RAW_LIMIT]
        if rows_lost != 1:
            record["rows_lost"] = rows_lost
        self._quarantine(record)

    def integrity(self, location: str, error: str) -> None:
        """An integrity failure where the rows themselves were kept."""
        if self.strict:
            raise StoreError(f"{location}: {error}")
        self.stats.checksum_failures += 1
        obs_metrics.counter(
            "store.checksum_failures",
            "Checksum/row-count mismatches tolerated by lenient reads",
        ).inc()
        self._quarantine({"location": location, "error": error, "rows_lost": 0})
        warnings.warn(f"{location}: {error}", RuntimeWarning, stacklevel=3)

    def duplicate(self, location: str, table: str, sha1: str) -> None:
        if self.strict:
            raise StoreError(
                f"{location}: duplicate sha1 {sha1!r} in {table} table"
            )
        self.stats.rows_duplicate += 1
        obs_metrics.counter(
            "store.rows_duplicate",
            "Duplicate sha1 rows ignored by lenient dataset-store reads",
        ).inc()
        self._quarantine(
            {"location": location, "error": f"duplicate sha1 in {table} table",
             "sha1": sha1, "rows_lost": 0}
        )


def read_manifest(directory: Union[str, Path]) -> StoreManifest:
    """Parse and validate ``manifest.json``.

    A missing manifest raises :class:`FileNotFoundError`: the directory
    holds no committed store, or an overwrite of one was interrupted.
    A present-but-corrupt manifest raises :class:`StoreError`.  Both
    hold in every mode -- a store whose metadata cannot be trusted must
    not be read silently.
    """
    path = Path(directory) / MANIFEST_FILE
    if not path.is_file():
        raise FileNotFoundError(
            f"{path}: no manifest, so no committed dataset store"
        )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StoreError(f"{MANIFEST_FILE}: unreadable manifest: {exc}") from exc
    if not isinstance(payload, dict):
        raise StoreError(f"{MANIFEST_FILE}: manifest is not a JSON object")
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise StoreError(
            f"{MANIFEST_FILE}: unsupported schema {schema!r} "
            f"(this reader supports {SCHEMA!r})"
        )
    try:
        manifest = StoreManifest(
            schema=schema,
            compress=bool(payload["compress"]),
            counts={key: int(value) for key, value in payload["counts"].items()},
            content_digest=str(payload["content_digest"]),
            parts=tuple(PartInfo.from_dict(entry) for entry in payload["parts"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"{MANIFEST_FILE}: malformed manifest: {exc}") from exc
    for table in _TABLES:
        declared = manifest.counts.get(table)
        from_parts = sum(part.rows for part in manifest.parts_for(table))
        if declared is None or declared != from_parts:
            raise StoreError(
                f"{MANIFEST_FILE}: {table} count {declared!r} disagrees with "
                f"part rows ({from_parts})"
            )
    return manifest


def _iter_parts(
    ctx: _ReadContext, parts: Iterable[PartInfo]
) -> Iterator[Tuple[str, int, Dict[str, Any], bytes]]:
    """Stream ``(part_name, lineno, parsed_row, raw_line)`` over ``parts``.

    The store's one part reader.  Verifies each part's byte checksum and
    row count as a side effect of streaming -- no second pass over the
    file -- and applies the context's strict/lenient fault policy.  A
    missing part raises :class:`FileNotFoundError` in strict mode and
    loses its rows in lenient mode.
    """
    for info in parts:
        path = ctx.directory / info.name
        if not path.is_file():
            if ctx.strict:
                raise FileNotFoundError(f"{path}: listed part is missing")
            ctx.fault(info.name, "listed part is missing", rows_lost=info.rows)
            continue
        rows_emitted = 0
        rows_failed = 0  # line-level faults already quarantined here
        lineno = 0
        raw = open(path, "rb")
        hashing = _HashingReader(raw)
        corrupt = False
        try:
            if info.name.endswith(".gz"):
                read = gzip.GzipFile(fileobj=hashing, mode="rb").read
            else:
                read = hashing.read
            try:
                for line in _iter_lines(read):
                    lineno += 1
                    if not line.strip():
                        continue
                    try:
                        obj = json.loads(line)
                    except ValueError as exc:
                        ctx.fault(f"{info.name}:{lineno}",
                                  f"invalid JSON: {exc}", raw=line)
                        rows_failed += 1
                        continue
                    if not isinstance(obj, dict):
                        ctx.fault(f"{info.name}:{lineno}",
                                  "row is not a JSON object", raw=line)
                        rows_failed += 1
                        continue
                    rows_emitted += 1
                    yield info.name, lineno, obj, line
            except (OSError, EOFError, zlib.error) as exc:
                # A corrupt (typically gzip) part cannot be read past the
                # damage; the remainder is lost.
                corrupt = True
                ctx.fault(info.name, f"corrupt part: {exc}",
                          rows_lost=max(info.rows - rows_emitted, 1))
        finally:
            raw.close()
        ctx.stats.parts_read += 1
        ctx.stats.bytes_read += hashing.bytes_read
        ctx.stats.rows_read += rows_emitted
        obs_metrics.counter(
            "store.bytes_read", "On-disk bytes read from dataset stores"
        ).inc(hashing.bytes_read)
        obs_metrics.counter(
            "store.rows_read", "Rows read from dataset stores"
        ).inc(rows_emitted)
        if corrupt:
            continue
        # Lines that failed parsing still occupied a row on disk, so a
        # quarantined line must not additionally count as "missing".
        consumed = rows_emitted + rows_failed
        if consumed != info.rows:
            if ctx.strict:
                raise StoreError(
                    f"{info.name}: expected {info.rows} rows, read "
                    f"{rows_emitted} (truncated export?)"
                )
            ctx.fault(
                info.name,
                f"expected {info.rows} rows, read {consumed}",
                rows_lost=max(info.rows - consumed, 0),
            )
        elif (
            hashing.bytes_read != info.bytes
            or hashing.hasher.hexdigest() != info.sha256
        ):
            ctx.integrity(
                info.name,
                "sha256 checksum mismatch (file modified after export?)",
            )


def _build_record(
    ctx: _ReadContext,
    factory: Type,
    location: str,
    obj: Dict[str, Any],
    raw: bytes,
):
    try:
        return factory(**obj)
    except TypeError as exc:
        # Unexpected/missing keys surface as TypeError from the
        # dataclass constructor; rewrap to honor the ValueError-with-
        # context contract.
        ctx.fault(location, f"invalid {factory.__name__} row: {exc}", raw=raw)
        return None


def _read_table_records(
    ctx: _ReadContext,
    manifest: StoreManifest,
    table: str,
    factory: Type,
) -> Dict[str, Any]:
    records: Dict[str, Any] = {}
    duplicates = 0
    for name, lineno, obj, raw in _iter_parts(ctx, manifest.parts_for(table)):
        record = _build_record(ctx, factory, f"{name}:{lineno}", obj, raw)
        if record is None:
            continue
        if record.sha1 in records:
            ctx.duplicate(f"{name}:{lineno}", table, record.sha1)
            duplicates += 1
            continue  # lenient: first occurrence wins, deterministically
        records[record.sha1] = record
    if duplicates:
        warnings.warn(
            f"{table} table: ignored {duplicates} duplicate sha1 row(s) "
            f"(kept first occurrence)",
            RuntimeWarning,
            stacklevel=2,
        )
    return records


def load_dataset(
    directory: Union[str, Path],
    *,
    strict: bool = True,
    stats: Optional[ReadStats] = None,
) -> TelemetryDataset:
    """Read a dataset store, as committed by :class:`AppendSession`.

    Raises :class:`FileNotFoundError` when ``manifest.json`` is missing
    (in both modes) or a manifest-listed part is (strict mode), and
    :class:`StoreError` -- a :class:`ValueError` -- with
    ``<file>:<line>`` context on malformed rows, duplicate sha1 rows,
    truncation, checksum mismatches or a dataset-digest mismatch
    (strict mode).  In lenient mode (``strict=False``) every such fault
    is quarantined or counted instead (see :class:`ReadStats`) and a
    valid dataset of the surviving rows is returned.
    """
    ctx = _ReadContext(directory, strict, stats)
    with trace.span("store.load", strict=strict) as span:
        manifest = read_manifest(directory)
        files = _read_table_records(ctx, manifest, "files", FileRecord)
        processes = _read_table_records(ctx, manifest, "processes", ProcessRecord)
        events: List[DownloadEvent] = []
        for name, lineno, obj, raw in _iter_parts(
            ctx, manifest.parts_for("events")
        ):
            event = _build_record(ctx, DownloadEvent, f"{name}:{lineno}", obj, raw)
            if event is None:
                continue
            if event.file_sha1 not in files or event.process_sha1 not in processes:
                ctx.fault(
                    f"{name}:{lineno}",
                    "event references sha1 missing from the metadata tables",
                    raw=raw,
                )
                continue
            events.append(event)
        dataset = TelemetryDataset(events, files, processes)
        if strict:
            digest = dataset.content_digest()
            if digest != manifest.content_digest:
                raise StoreError(
                    f"{MANIFEST_FILE}: dataset content digest mismatch "
                    f"(manifest {manifest.content_digest[:12]}..., "
                    f"loaded {digest[:12]}...)"
                )
        span.set_attribute("events", len(events))
        span.set_attribute("quarantined", ctx.stats.rows_quarantined)
    return dataset

"""Tests for the streaming append session and its checkpoint protocol."""

import json

import pytest

from repro.telemetry.dataset import TelemetryDataset
from repro.telemetry.events import DownloadEvent, FileRecord, ProcessRecord
from repro.telemetry.store import (
    CHECKPOINT_FILE,
    MANIFEST_FILE,
    QUARANTINE_FILE,
    StoreError,
    load_dataset,
    open_append_session,
    read_manifest,
    save_dataset,
)

F1 = "1" * 40
F2 = "2" * 40
P1 = "p" * 40
P2 = "q" * 40


def _events():
    return [
        DownloadEvent(F1, "M0", P1, "http://dl.example.com/a.exe", 1.5),
        DownloadEvent(F1, "M1", P1, "http://dl.example.com/a.exe", 2.5),
        DownloadEvent(F2, "M0", P2, "http://cdn.example.org/b.exe", 3.25),
        DownloadEvent(F2, "M2", P1, "http://cdn.example.org/b.exe", 40.0),
        DownloadEvent(F1, "M2", P2, "http://dl.example.com/a.exe", 100.5),
    ]


def _tables():
    files = {
        F1: FileRecord(F1, "a.exe", 1234, signer="S", ca="C", packer="UPX"),
        F2: FileRecord(F2, "b.exe", 999),
        "u" * 40: FileRecord("u" * 40, "unused.exe", 5),
    }
    processes = {
        P1: ProcessRecord(P1, "chrome.exe", signer="Google Inc"),
        P2: ProcessRecord(P2, "setup.exe"),
        "v" * 40: ProcessRecord("v" * 40, "unused.exe"),
    }
    return files, processes


def _batch_digest():
    events = _events()
    files, processes = _tables()
    return TelemetryDataset(
        events,
        {sha: files[sha] for sha in (F1, F2)},
        {sha: processes[sha] for sha in (P1, P2)},
    ).content_digest()


@pytest.mark.parametrize("compress", [False, True])
def test_appended_store_digest_matches_batch_export(tmp_path, compress):
    events = _events()
    session = open_append_session(tmp_path / "store", compress=compress)
    session.append_events(events[:2])
    session.append_events(events[2:])
    manifest = session.commit(*_tables())
    assert manifest.content_digest == _batch_digest()
    loaded = load_dataset(tmp_path / "store", strict=True)
    assert loaded.events == events
    # Metadata narrowed to referenced hashes only.
    assert set(loaded.files) == {F1, F2}
    assert set(loaded.processes) == {P1, P2}
    # Commit seals the store: the checkpoint sidecar is gone.
    assert not (tmp_path / "store" / CHECKPOINT_FILE).exists()


def test_digest_independent_of_part_boundaries(tmp_path):
    events = _events()
    digests = set()
    for index, batching in enumerate(([5], [1, 4], [2, 2, 1])):
        session = open_append_session(tmp_path / f"store-{index}")
        cursor = 0
        for size in batching:
            session.append_events(events[cursor:cursor + size])
            cursor += size
        digests.add(session.commit(*_tables()).content_digest)
    assert digests == {_batch_digest()}


def test_empty_commit_is_loadable(tmp_path):
    session = open_append_session(tmp_path / "store")
    session.commit(*_tables())
    loaded = load_dataset(tmp_path / "store", strict=True)
    assert loaded.events == []


def test_crash_between_part_and_checkpoint_resumes_exactly(tmp_path):
    events = _events()
    calls = []

    def crash_on_second(stage):
        calls.append(stage)
        if len(calls) == 2:
            raise RuntimeError("injected")

    session = open_append_session(
        tmp_path / "store", fault_hook=crash_on_second
    )
    session.append_events(events[:2])
    with pytest.raises(RuntimeError):
        session.append_events(events[2:4])
    # The orphan part is on disk but not checkpointed.
    checkpoint = json.loads(
        (tmp_path / "store" / CHECKPOINT_FILE).read_text()
    )
    assert checkpoint["events"] == 2
    assert len(checkpoint["parts"]) == 1

    resumed = open_append_session(tmp_path / "store", resume=True)
    assert resumed.events_committed == 2
    # The producer replays its source, skipping the 2 durable events.
    resumed.append_events(events[2:4])
    resumed.append_events(events[4:])
    manifest = resumed.commit(*_tables())
    assert manifest.content_digest == _batch_digest()
    loaded = load_dataset(tmp_path / "store", strict=True)
    assert loaded.events == events


def test_resume_without_checkpoint_starts_fresh(tmp_path):
    (tmp_path / "store").mkdir()
    session = open_append_session(tmp_path / "store", resume=True)
    assert session.events_committed == 0


def test_resume_into_committed_store_raises(tmp_path):
    events = _events()
    files, processes = _tables()
    save_dataset(
        TelemetryDataset(
            events,
            {sha: files[sha] for sha in (F1, F2)},
            {sha: processes[sha] for sha in (P1, P2)},
        ),
        tmp_path / "store",
    )
    with pytest.raises(StoreError, match="already committed"):
        open_append_session(tmp_path / "store", resume=True)


def test_resume_detects_corrupted_part(tmp_path):
    session = open_append_session(tmp_path / "store")
    session.append_events(_events()[:3])
    part = tmp_path / "store" / "events-00000.jsonl"
    part.write_text(part.read_text().replace("M0", "MX"))
    with pytest.raises(StoreError):
        open_append_session(tmp_path / "store", resume=True)


@pytest.mark.parametrize("payload", ["[]", "{not json"])
def test_resume_rejects_unusable_checkpoint(tmp_path, payload):
    session = open_append_session(tmp_path / "store")
    session.append_events(_events()[:2])
    (tmp_path / "store" / CHECKPOINT_FILE).write_text(payload)
    with pytest.raises(StoreError, match="checkpoint"):
        open_append_session(tmp_path / "store", resume=True)


def test_quarantine_records_poison(tmp_path):
    session = open_append_session(tmp_path / "store")
    session.quarantine(
        location="serve:record-7", error="boom", raw="{'garbage': True}"
    )
    session.append_events(_events())
    session.commit(*_tables())
    lines = (tmp_path / "store" / QUARANTINE_FILE).read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["location"] == "serve:record-7"
    assert record["error"] == "boom"
    # Quarantined rows never touch the dataset.
    assert read_manifest(tmp_path / "store").counts["events"] == 5


def test_double_commit_rejected(tmp_path):
    session = open_append_session(tmp_path / "store")
    session.append_events(_events())
    session.commit(*_tables())
    with pytest.raises(StoreError):
        session.commit(*_tables())


def test_fresh_open_removes_previous_export(tmp_path):
    session = open_append_session(tmp_path / "store")
    session.append_events(_events())
    session.commit(*_tables())
    assert (tmp_path / "store" / MANIFEST_FILE).exists()
    fresh = open_append_session(tmp_path / "store")
    fresh.commit(*_tables())
    assert read_manifest(tmp_path / "store").counts["events"] == 0

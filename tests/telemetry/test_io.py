"""Tests for the store's default export/import path: ``save_dataset``
and a strict ``load_dataset`` of a one-part-per-table store."""

import json

import pytest

from repro.telemetry.dataset import TelemetryDataset
from repro.telemetry.events import DownloadEvent, FileRecord, ProcessRecord
from repro.telemetry.store import load_dataset, save_dataset

F1 = "1" * 40
P1 = "p" * 40


def _dataset():
    events = [
        DownloadEvent(F1, "M0", P1, "http://dl.example.com/a.exe", 1.5),
        DownloadEvent(F1, "M1", P1, "http://dl.example.com/a.exe", 2.5,
                      executed=True),
    ]
    files = {F1: FileRecord(F1, "a.exe", 1234, signer="S", ca="C",
                            packer="UPX")}
    processes = {P1: ProcessRecord(P1, "chrome.exe", signer="Google Inc")}
    return TelemetryDataset(events, files, processes)


class TestRoundTrip:
    def test_save_and_load_identity(self, tmp_path):
        original = _dataset()
        save_dataset(original, tmp_path / "corpus")
        reloaded = load_dataset(tmp_path / "corpus")
        assert len(reloaded) == len(original)
        assert reloaded.files == original.files
        assert reloaded.processes == original.processes
        assert list(reloaded.events) == list(original.events)

    def test_directory_created(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "dir"
        save_dataset(_dataset(), target)
        assert (target / "events-00000.jsonl").exists()

    def test_overwrite_existing_export(self, tmp_path):
        directory = tmp_path / "corpus"
        save_dataset(_dataset(), directory)
        save_dataset(_dataset(), directory)  # no error, same content
        assert len(load_dataset(directory)) == 2

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nowhere")

    def test_world_round_trip(self, small_session, tmp_path):
        save_dataset(small_session.dataset, tmp_path / "world")
        reloaded = load_dataset(tmp_path / "world")
        assert len(reloaded) == len(small_session.dataset)
        assert reloaded.file_prevalence == (
            small_session.dataset.file_prevalence
        )
        assert reloaded.machine_ids == small_session.dataset.machine_ids

    def test_world_round_trip_digest_exact(self, small_session, tmp_path):
        save_dataset(small_session.dataset, tmp_path / "world")
        reloaded = load_dataset(tmp_path / "world")
        assert reloaded.content_digest() == (
            small_session.dataset.content_digest()
        )


class TestAtomicityAndVerification:
    """The silent-truncation and error-contract bugfixes of the store."""

    def test_save_writes_manifest_and_no_temp_files(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "corpus")
        assert (directory / "manifest.json").exists()
        assert not list(directory.glob("*.tmp"))

    def test_truncated_export_refused(self, tmp_path):
        """A crash-truncated events part must not load silently smaller."""
        directory = save_dataset(_dataset(), tmp_path / "corpus")
        events = directory / "events-00000.jsonl"
        first_line = events.read_text(encoding="utf-8").splitlines()[0]
        events.write_text(first_line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="events-00000.jsonl"):
            load_dataset(directory)

    def test_malformed_row_raises_value_error_with_context(self, tmp_path):
        """The docstring's ValueError contract, with file:line context."""
        directory = save_dataset(_dataset(), tmp_path / "corpus")
        events = directory / "events-00000.jsonl"
        lines = events.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        row["unexpected_key"] = True
        lines[1] = json.dumps(row)
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="events-00000.jsonl:2"):
            load_dataset(directory)

    def test_duplicate_sha1_rows_rejected(self, tmp_path):
        """Duplicate sha1 rows are no longer silently last-wins."""
        directory = save_dataset(_dataset(), tmp_path / "corpus")
        files = directory / "files-00000.jsonl"
        first_line = files.read_text(encoding="utf-8").splitlines()[0]
        with open(files, "a", encoding="utf-8") as handle:
            handle.write(first_line + "\n")
        with pytest.raises(ValueError, match="duplicate sha1"):
            load_dataset(directory)

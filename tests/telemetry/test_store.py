"""Tests for the versioned dataset store: round trips and fault injection."""

import dataclasses
import hashlib
import json

import pytest

from repro.cli import main
from repro.obs import metrics as obs_metrics
from repro.serve import LoadGenerator
from repro.telemetry import store
from repro.telemetry.dataset import TelemetryDataset
from repro.telemetry.events import (
    DownloadEvent,
    FileRecord,
    ProcessRecord,
    row_dict,
)
from repro.telemetry.store import (
    MANIFEST_FILE,
    QUARANTINE_FILE,
    SCHEMA,
    ReadStats,
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

#: (compress, part_rows) layouts every round-trip property must hold for:
#: ``part_rows=None`` is one ``save_dataset`` export, ``N`` an append
#: session of N-event parts.
LAYOUTS = [(False, None), (False, 2), (True, None), (True, 2)]


def _dataset():
    events = [
        DownloadEvent(F1, "M0", P1, "http://dl.example.com/a.exe", 1.5),
        DownloadEvent(F1, "M1", P1, "http://dl.example.com/a.exe", 2.5),
        DownloadEvent(F2, "M0", P2, "http://cdn.example.org/b.exe", 3.25),
        DownloadEvent(F2, "M2", P1, "http://cdn.example.org/b.exe", 40.0),
        DownloadEvent(F1, "M2", P2, "http://dl.example.com/a.exe", 100.5),
    ]
    files = {
        F1: FileRecord(F1, "a.exe", 1234, signer="S", ca="C", packer="UPX"),
        F2: FileRecord(F2, "b.exe", 999),
    }
    processes = {
        P1: ProcessRecord(P1, "chrome.exe", signer="Google Inc"),
        P2: ProcessRecord(P2, "setup.exe"),
    }
    return TelemetryDataset(events, files, processes)


def _write(dataset, directory, compress=False, part_rows=None):
    """Export ``dataset``: one ``save_dataset`` call, or ``part_rows``-event
    appends committed by hand."""
    if part_rows is None:
        return save_dataset(dataset, directory, compress=compress)
    session = open_append_session(directory, compress=compress)
    events = dataset.events
    for start in range(0, len(events), part_rows):
        session.append_events(events[start:start + part_rows])
    session.commit(dataset.files, dataset.processes)
    return directory


def _reseal(directory, name):
    """Re-record part ``name`` in the manifest after editing its rows.

    Stands for a store whose writer itself wrote the edited rows, so a
    lenient read sees the row-level fault and no checksum mismatch.
    """
    path = directory / MANIFEST_FILE
    manifest = json.loads(path.read_text(encoding="utf-8"))
    blob = (directory / name).read_bytes()
    for part in manifest["parts"]:
        if part["name"] == name:
            rows = sum(1 for line in blob.splitlines() if line.strip())
            manifest["counts"][part["table"]] += rows - part["rows"]
            part.update(rows=rows, bytes=len(blob),
                        sha256=hashlib.sha256(blob).hexdigest())
    path.write_text(json.dumps(manifest), encoding="utf-8")


class TestRoundTrip:
    @pytest.mark.parametrize("compress,part_rows", LAYOUTS)
    def test_digest_preserved(self, tmp_path, compress, part_rows):
        original = _dataset()
        _write(original, tmp_path / "c", compress, part_rows)
        reloaded = load_dataset(tmp_path / "c")
        assert reloaded.content_digest() == original.content_digest()
        assert list(reloaded.events) == list(original.events)
        assert reloaded.files == original.files
        assert reloaded.processes == original.processes

    def test_world_round_trip_compressed_chunked(self, small_session, tmp_path):
        """Digest-exact round trip at a second (generated-world) scale."""
        dataset = small_session.dataset
        _write(dataset, tmp_path / "w", compress=True, part_rows=1000)
        reloaded = load_dataset(tmp_path / "w")
        assert reloaded.content_digest() == dataset.content_digest()

    @pytest.mark.parametrize("compress", [False, True])
    def test_deterministic_bytes(self, tmp_path, compress):
        """Identical datasets export byte-identical stores (gzip mtime=0)."""
        _write(_dataset(), tmp_path / "a", compress, part_rows=2)
        _write(_dataset(), tmp_path / "b", compress, part_rows=2)
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_empty_dataset_round_trip(self, tmp_path):
        empty = TelemetryDataset([], {}, {})
        save_dataset(empty, tmp_path / "e")
        reloaded = load_dataset(tmp_path / "e")
        assert len(reloaded) == 0
        assert reloaded.content_digest() == empty.content_digest()

    def test_resave_replaces_stale_layout(self, tmp_path):
        """Re-exporting in fewer parts leaves no stale parts behind."""
        directory = tmp_path / "c"
        _write(_dataset(), directory, compress=True, part_rows=1)
        assert (directory / "events-00004.jsonl.gz").exists()
        save_dataset(_dataset(), directory)  # one uncompressed part
        assert sorted(p.name for p in directory.glob("events-*")) == [
            "events-00000.jsonl"
        ]
        assert not list(directory.glob("*.gz"))
        reloaded = load_dataset(directory)
        assert reloaded.content_digest() == _dataset().content_digest()

    def test_no_temp_files_left_behind(self, tmp_path):
        _write(_dataset(), tmp_path / "c", compress=True, part_rows=2)
        assert not list((tmp_path / "c").glob("*.tmp"))

    def test_manifest_contents(self, tmp_path):
        original = _dataset()
        directory = _write(original, tmp_path / "c", part_rows=2)
        manifest = read_manifest(directory)
        assert manifest.schema == SCHEMA
        assert manifest.compress is False
        assert manifest.counts == {"events": 5, "files": 2, "processes": 2}
        assert manifest.content_digest == original.content_digest()
        assert [p.name for p in manifest.parts_for("events")] == [
            "events-00000.jsonl", "events-00001.jsonl", "events-00002.jsonl",
        ]
        assert [p.name for p in manifest.parts_for("files")] == [
            "files-00000.jsonl"
        ]
        for part in manifest.parts:
            blob = (directory / part.name).read_bytes()
            assert len(blob) == part.bytes
            assert hashlib.sha256(blob).hexdigest() == part.sha256

    def test_read_manifest_absent(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no manifest"):
            read_manifest(tmp_path)

    def test_export_parts_hold_export_part_rows(self, tmp_path, monkeypatch):
        """``save_dataset`` appends ``EXPORT_PART_ROWS`` events per part."""
        monkeypatch.setattr(store, "EXPORT_PART_ROWS", 2)
        directory = save_dataset(_dataset(), tmp_path / "c")
        manifest = read_manifest(directory)
        assert [p.rows for p in manifest.parts_for("events")] == [2, 2, 1]
        reloaded = load_dataset(directory)
        assert reloaded.content_digest() == _dataset().content_digest()

    def test_commit_narrows_metadata_to_referenced_hashes(self, tmp_path):
        """Metadata rows no event references are not exported."""
        original = _dataset()
        files = {"u" * 40: FileRecord("u" * 40, "unused.exe", 5),
                 **original.files}
        save_dataset(TelemetryDataset(original.events, files,
                                      original.processes), tmp_path / "c")
        reloaded = load_dataset(tmp_path / "c")
        assert list(reloaded.files) == [F1, F2]
        assert reloaded.content_digest() == original.content_digest()


def _row_dataset():
    """Rows that exercise every JSON case a store row meets."""
    events = [
        # repr needs 17 significant digits for this timestamp.
        DownloadEvent(F1, "M0", P1, "http://dl.example.com/a.exe",
                      0.30000000000000004),
        DownloadEvent(F2, "M1", P2, "http://cdn.example.org/b.exe", 2.5,
                      executed=False),
    ]
    files = {
        F1: FileRecord(F1, "s\u00e9tup_\u4e2d\U0001f600.exe", 1234,
                       signer="S", ca="C", packer="UPX"),
        F2: FileRecord(F2, "b.exe", 999),
    }
    processes = {
        P1: ProcessRecord(P1, "chrome.exe", signer="Google Inc"),
        P2: ProcessRecord(P2, "setup.exe"),
    }
    return TelemetryDataset(events, files, processes)


#: The bytes of ``_row_dataset``'s parts: one JSON object per line, keys
#: in field-declaration order, ``json.dumps`` defaults (``", "`` and
#: ``": "`` separators, ``\uXXXX`` escapes, ``repr`` floats).
ROW_BYTES = {
    "events-00000.jsonl": (
        b'{"file_sha1": "1111111111111111111111111111111111111111", '
        b'"machine_id": "M0", '
        b'"process_sha1": "pppppppppppppppppppppppppppppppppppppppp", '
        b'"url": "http://dl.example.com/a.exe", '
        b'"timestamp": 0.30000000000000004, "executed": true}\n'
        b'{"file_sha1": "2222222222222222222222222222222222222222", '
        b'"machine_id": "M1", '
        b'"process_sha1": "qqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqq", '
        b'"url": "http://cdn.example.org/b.exe", '
        b'"timestamp": 2.5, "executed": false}\n'
    ),
    "files-00000.jsonl": (
        b'{"sha1": "1111111111111111111111111111111111111111", '
        b'"file_name": "s\\u00e9tup_\\u4e2d\\ud83d\\ude00.exe", '
        b'"size_bytes": 1234, "signer": "S", "ca": "C", "packer": "UPX"}\n'
        b'{"sha1": "2222222222222222222222222222222222222222", '
        b'"file_name": "b.exe", '
        b'"size_bytes": 999, "signer": null, "ca": null, "packer": null}\n'
    ),
    "processes-00000.jsonl": (
        b'{"sha1": "pppppppppppppppppppppppppppppppppppppppp", '
        b'"executable_name": "chrome.exe", '
        b'"signer": "Google Inc", "ca": null, "packer": null}\n'
        b'{"sha1": "qqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqq", '
        b'"executable_name": "setup.exe", '
        b'"signer": null, "ca": null, "packer": null}\n'
    ),
}


class TestRowBytes:
    """The row contract, pinned: parts and wire records keep their bytes."""

    def test_parts_hold_pinned_bytes(self, tmp_path):
        directory = save_dataset(_row_dataset(), tmp_path / "c")
        for name, expected in ROW_BYTES.items():
            assert (directory / name).read_bytes() == expected, name
        assert load_dataset(directory).content_digest() == (
            _row_dataset().content_digest()
        )

    def test_row_dict_keys_are_fields_in_order(self):
        dataset = _row_dataset()
        for record in (*dataset.events, *dataset.files.values(),
                       *dataset.processes.values()):
            names = [field.name for field in dataclasses.fields(record)]
            assert list(row_dict(record)) == names
            assert row_dict(record) == dataclasses.asdict(record)

    def test_wire_records_are_asdict(self):
        events = [*_row_dataset().events, *_dataset().events]
        records = list(LoadGenerator(events, agents=2).merged_stream())
        expected = [dataclasses.asdict(event) for event in events
                    if event.executed]
        assert records == expected
        assert [list(record) for record in records] == [
            list(record) for record in expected
        ]


class TestStreaming:
    """Reads stream the parts the manifest lists, and nothing else."""

    def test_legacy_layout_without_manifest(self, tmp_path):
        """A directory without a manifest is refused, whatever it holds."""
        directory = save_dataset(_dataset(), tmp_path / "c")
        (directory / MANIFEST_FILE).unlink()
        for strict in (True, False):
            with pytest.raises(FileNotFoundError, match="no manifest"):
                load_dataset(directory, strict=strict)

    def test_interrupted_overwrite_refused(self, tmp_path, capsys):
        """An overwrite cut off after it removed the manifest and one part
        must not load the remaining parts as a smaller dataset."""
        dataset = _dataset()
        directory = _write(dataset, tmp_path / "c", part_rows=2)
        assert [p.rows for p in read_manifest(directory).parts_for(
            "events")] == [2, 2, 1]
        # ``_remove_existing`` unlinks the manifest first, then the parts.
        (directory / MANIFEST_FILE).unlink()
        (directory / "events-00000.jsonl").unlink()
        with pytest.raises(FileNotFoundError):
            load_dataset(directory)
        with pytest.raises(FileNotFoundError):
            load_dataset(directory, strict=False)
        assert main(["import", str(directory)]) == 1
        assert "no manifest" in capsys.readouterr().err

    def test_unlisted_parts_are_never_read(self, tmp_path):
        """Stray parts beside a committed store do not join the dataset."""
        directory = save_dataset(_dataset(), tmp_path / "c")
        events = (directory / "events-00000.jsonl").read_text(encoding="utf-8")
        (directory / "events-00001.jsonl").write_text(events, encoding="utf-8")
        (directory / "events.jsonl").write_text(events, encoding="utf-8")
        reloaded = load_dataset(directory)
        assert list(reloaded.events) == list(_dataset().events)


class TestStrictFaults:
    def test_truncated_part_refused(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        part = directory / "events-00000.jsonl"
        lines = part.read_text(encoding="utf-8").splitlines()
        part.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"events-00000\.jsonl.*truncated"):
            load_dataset(directory)

    def test_bad_json_line_has_file_and_line(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        part = directory / "events-00000.jsonl"
        lines = part.read_text(encoding="utf-8").splitlines()
        lines[1] = "{this is not json"
        part.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"events-00000\.jsonl:2: invalid JSON"):
            load_dataset(directory)

    def test_unexpected_key_wrapped_as_value_error(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        part = directory / "events-00000.jsonl"
        lines = part.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[0])
        row["surprise"] = 1
        lines[0] = json.dumps(row)
        part.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"events-00000\.jsonl:1: invalid "
                                 r"DownloadEvent"):
            load_dataset(directory)

    def test_missing_key_wrapped_as_value_error(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        part = directory / "files-00000.jsonl"
        lines = part.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[0])
        del row["size_bytes"]
        lines[0] = json.dumps(row)
        part.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"files-00000\.jsonl:1: invalid FileRecord"):
            load_dataset(directory)

    def test_in_place_tamper_fails_checksum(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        part = directory / "files-00000.jsonl"
        text = part.read_text(encoding="utf-8")
        part.write_text(text.replace("a.exe", "x.exe"), encoding="utf-8")
        with pytest.raises(ValueError, match=r"files-00000\.jsonl.*checksum"):
            load_dataset(directory)

    def test_corrupt_gzip_part_refused(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c", compress=True)
        part = directory / "events-00000.jsonl.gz"
        blob = bytearray(part.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        part.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            load_dataset(directory)

    def test_duplicate_sha1_refused(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        part = directory / "files-00000.jsonl"
        first = part.read_text(encoding="utf-8").splitlines()[0]
        with open(part, "a", encoding="utf-8") as handle:
            handle.write(first + "\n")
        with pytest.raises(ValueError,
                           match=r"files-00000\.jsonl:3: duplicate sha1"):
            load_dataset(directory)

    def test_manifest_count_tamper_refused(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        manifest_path = directory / MANIFEST_FILE
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        payload["counts"]["events"] -= 1
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StoreError, match="disagrees with part rows"):
            load_dataset(directory)

    def test_manifest_digest_tamper_refused(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        manifest_path = directory / MANIFEST_FILE
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        payload["content_digest"] = "0" * 64
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StoreError, match="content digest mismatch"):
            load_dataset(directory)

    def test_unsupported_schema_refused(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        manifest_path = directory / MANIFEST_FILE
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        payload["schema"] = "telemetry-store-v999"
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StoreError, match="unsupported schema"):
            load_dataset(directory)

    def test_unreadable_manifest_refused_even_leniently(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        (directory / MANIFEST_FILE).write_text("{broken", encoding="utf-8")
        with pytest.raises(StoreError, match="unreadable manifest"):
            load_dataset(directory, strict=False)

    def test_missing_part_raises_file_not_found(self, tmp_path):
        directory = _write(_dataset(), tmp_path / "c", part_rows=2)
        (directory / "events-00001.jsonl").unlink()
        with pytest.raises(FileNotFoundError):
            load_dataset(directory)

    def test_missing_table_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nowhere")

    def test_checksum_verified_by_streaming_reader(self, tmp_path):
        directory = _write(_dataset(), tmp_path / "c", part_rows=2)
        part = directory / "events-00001.jsonl"
        text = part.read_text(encoding="utf-8")
        part.write_text(text.replace("M0", "M9"), encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"events-00001\.jsonl: sha256 checksum"):
            load_dataset(directory)


class TestLenientFaults:
    def test_truncation_quarantined_with_metrics(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        part = directory / "events-00000.jsonl"
        lines = part.read_text(encoding="utf-8").splitlines()
        part.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
        before = obs_metrics.counter("store.rows_quarantined").value
        stats = ReadStats()
        dataset = load_dataset(directory, strict=False, stats=stats)
        assert len(dataset) == 3
        assert stats.rows_quarantined == 2
        assert stats.bytes_read > 0
        assert obs_metrics.counter("store.rows_quarantined").value == before + 2
        quarantine = (directory / QUARANTINE_FILE).read_text(encoding="utf-8")
        record = json.loads(quarantine.splitlines()[0])
        assert record["location"] == "events-00000.jsonl"
        assert record["rows_lost"] == 2

    def test_bad_line_quarantined_rest_loaded(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        part = directory / "events-00000.jsonl"
        lines = part.read_text(encoding="utf-8").splitlines()
        lines[2] = "not json at all"
        part.write_text("\n".join(lines) + "\n", encoding="utf-8")
        stats = ReadStats()
        # Editing the line also changes the part's bytes, so the read
        # additionally reports (and warns about) a checksum mismatch.
        with pytest.warns(RuntimeWarning, match="checksum"):
            dataset = load_dataset(directory, strict=False, stats=stats)
        assert len(dataset) == 4
        assert stats.rows_quarantined == 1
        lines = (directory / QUARANTINE_FILE).read_text(
            encoding="utf-8"
        ).splitlines()
        record = json.loads(lines[0])
        assert record["location"] == "events-00000.jsonl:3"
        assert record["raw"].startswith("not json")

    def test_duplicates_keep_first_and_warn(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        part = directory / "files-00000.jsonl"
        lines = part.read_text(encoding="utf-8").splitlines()
        dup = json.loads(lines[0])
        dup["file_name"] = "evil-twin.exe"
        with open(part, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(dup) + "\n")
        _reseal(directory, part.name)
        stats = ReadStats()
        with pytest.warns(RuntimeWarning, match="duplicate sha1"):
            dataset = load_dataset(directory, strict=False, stats=stats)
        assert stats.rows_duplicate == 1
        assert stats.checksum_failures == 0
        # First occurrence wins -- never the silent last-wins of old.
        assert dataset.files[F1].file_name == "a.exe"

    def test_checksum_mismatch_counted_and_warned(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        part = directory / "files-00000.jsonl"
        text = part.read_text(encoding="utf-8")
        part.write_text(text.replace("a.exe", "x.exe"), encoding="utf-8")
        stats = ReadStats()
        with pytest.warns(RuntimeWarning, match="checksum"):
            dataset = load_dataset(directory, strict=False, stats=stats)
        assert stats.checksum_failures == 1
        assert stats.rows_quarantined == 0
        assert len(dataset) == 5  # rows were kept, mismatch only recorded

    def test_orphan_events_quarantined(self, tmp_path):
        directory = save_dataset(_dataset(), tmp_path / "c")
        part = directory / "files-00000.jsonl"
        lines = [
            line
            for line in part.read_text(encoding="utf-8").splitlines()
            if F2 not in line
        ]
        part.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _reseal(directory, part.name)
        stats = ReadStats()
        dataset = load_dataset(directory, strict=False, stats=stats)
        assert stats.rows_quarantined == 2  # the two F2 events
        assert stats.checksum_failures == 0
        assert set(dataset.files) == {F1}
        assert all(event.file_sha1 == F1 for event in dataset.events)

    def test_corrupt_gzip_part_skipped(self, tmp_path):
        directory = _write(_dataset(), tmp_path / "c", compress=True,
                           part_rows=2)
        part = directory / "events-00000.jsonl.gz"
        blob = bytearray(part.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        part.write_bytes(bytes(blob))
        stats = ReadStats()
        dataset = load_dataset(directory, strict=False, stats=stats)
        # The two rows of the damaged chunk are lost (quarantined as
        # corrupt-part remainder and/or unparseable garbage lines); the
        # other chunks and the metadata tables are unaffected.
        assert stats.rows_quarantined >= 2
        assert len(dataset) == 3
        assert dataset.files

    def test_missing_part_quarantined(self, tmp_path):
        directory = _write(_dataset(), tmp_path / "c", part_rows=2)
        (directory / "events-00001.jsonl").unlink()
        stats = ReadStats()
        dataset = load_dataset(directory, strict=False, stats=stats)
        assert stats.rows_quarantined == 2
        assert len(dataset) == 3

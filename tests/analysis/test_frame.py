"""Tests for the shared columnar SessionFrame (frame mechanics).

Equivalence of the analysis outputs themselves is covered by
``test_frame_equivalence.py``; this module exercises the frame's own
contract: vocabularies, sentinels, chunked vs unchunked builds,
memoization and the Alexa side table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.frame import (
    ABSENT,
    ALEXA_BUCKET_UNRANKED,
    FAMILY_NONE,
    SessionFrame,
    Vocabulary,
    build_frame,
    clear_frame_cache,
    session_frame,
)
from repro.labeling.ground_truth import LabeledDataset
from repro.labeling.labels import FileLabel, MalwareType, UrlLabel
from repro.labeling.avtype import TypeExtraction
from repro.labeling.whitelists import AlexaService
from repro.obs import metrics as obs_metrics
from repro.telemetry.dataset import TelemetryDataset
from repro.telemetry.events import DownloadEvent, FileRecord, ProcessRecord


def _empty_labeled() -> LabeledDataset:
    return LabeledDataset(
        dataset=TelemetryDataset([], {}, {}),
        file_labels={},
        process_labels={},
        url_labels={},
        file_types={},
        process_types={},
        file_families={},
        type_resolution_fractions={},
    )


def _tiny_labeled() -> LabeledDataset:
    """Two machines, three files (one table-only), two processes."""
    files = {
        "f-mal": FileRecord("f-mal", "mal.exe", 4096, signer="Evil Corp",
                            packer="upx"),
        "f-ben": FileRecord("f-ben", "ben.exe", 1024, signer="Good Inc"),
        # Table-only: never downloaded, never labeled -> ABSENT paths.
        "f-orphan": FileRecord("f-orphan", "orphan.exe", 7),
    }
    processes = {
        "p-browser": ProcessRecord("p-browser", "chrome.exe",
                                   signer="Google"),
        "p-other": ProcessRecord("p-other", "updater.exe"),
    }
    events = [
        DownloadEvent("f-ben", "m1", "p-browser",
                      "http://cdn.example.com/ben", 1.5),
        DownloadEvent("f-mal", "m1", "p-other",
                      "http://bad.example.net/mal", 40.0),
        DownloadEvent("f-mal", "m2", "p-browser",
                      "http://bad.example.net/mal", 200.5),
    ]
    return LabeledDataset(
        dataset=TelemetryDataset(events, files, processes),
        file_labels={"f-mal": FileLabel.MALICIOUS, "f-ben": FileLabel.BENIGN},
        process_labels={"p-browser": FileLabel.BENIGN},
        url_labels={"http://cdn.example.com/ben": UrlLabel.BENIGN},
        file_types={
            "f-mal": TypeExtraction(MalwareType.TROJAN, "voting",
                                    {MalwareType.TROJAN: 3}),
        },
        process_types={},
        file_families={"f-mal": None},
        type_resolution_fractions={},
    )


def _frames_equal(a: SessionFrame, b: SessionFrame) -> None:
    import dataclasses

    for field in dataclasses.fields(SessionFrame):
        left = getattr(a, field.name)
        right = getattr(b, field.name)
        if isinstance(left, Vocabulary):
            assert list(left.values) == list(right.values), field.name
        elif isinstance(left, np.ndarray):
            assert left.dtype == right.dtype, field.name
            assert np.array_equal(left, right), field.name


class TestVocabulary:
    def test_first_seen_code_order(self):
        vocab = Vocabulary()
        assert vocab.intern("b") == 0
        assert vocab.intern("a") == 1
        assert vocab.intern("b") == 0
        assert list(vocab.values) == ["b", "a"]
        assert vocab.decode([1, 0]) == ["a", "b"]
        assert vocab.value_of(1) == "a"

    def test_unseen_value_has_no_code(self):
        vocab = Vocabulary()
        vocab.intern("seen")
        assert vocab.code_of("never-interned") is None
        assert vocab.code_of("seen") == 0

    def test_version_bumps_only_on_growth(self):
        vocab = Vocabulary()
        assert vocab.version == 0
        vocab.intern("x")
        assert vocab.version == 1
        vocab.intern("x")
        assert vocab.version == 1
        vocab.intern("y")
        assert vocab.version == 2


class TestBuildFrame:
    def test_empty_dataset(self):
        frame = build_frame(_empty_labeled())
        assert frame.n_events == 0
        assert frame.n_files == 0
        assert frame.n_machines == 0
        assert frame.event_timestamp.shape == (0,)
        assert not frame.has_alexa

    def test_single_event(self):
        labeled = _tiny_labeled()
        single = LabeledDataset(
            dataset=TelemetryDataset(
                [labeled.dataset.events[0]],
                labeled.dataset.files,
                labeled.dataset.processes,
            ),
            file_labels=labeled.file_labels,
            process_labels=labeled.process_labels,
            url_labels=labeled.url_labels,
            file_types=labeled.file_types,
            process_types=labeled.process_types,
            file_families=labeled.file_families,
            type_resolution_fractions={},
        )
        frame = build_frame(single)
        assert frame.n_events == 1
        assert frame.n_machines == 1
        # All three table files are interned even with one event.
        assert frame.n_files == 3
        assert int(frame.event_month[0]) == 0

    def test_sentinels(self):
        frame = build_frame(_tiny_labeled())
        orphan = frame.files.code_of("f-orphan")
        assert orphan is not None
        assert int(frame.file_label[orphan]) == ABSENT
        assert int(frame.file_type[orphan]) == ABSENT
        assert int(frame.file_signer[orphan]) == ABSENT
        assert int(frame.file_prevalence[orphan]) == 0
        # f-mal has an AVclass family of None -> FAMILY_NONE, not ABSENT.
        mal = frame.files.code_of("f-mal")
        assert int(frame.file_family[mal]) == FAMILY_NONE
        # The non-browser process has no browser code.
        other = frame.processes.code_of("p-other")
        assert int(frame.process_browser[other]) == ABSENT
        assert int(frame.process_label[other]) == ABSENT

    def test_prevalence_counts_distinct_machines(self):
        frame = build_frame(_tiny_labeled())
        labeled = _tiny_labeled()
        for sha, expected in labeled.dataset.file_prevalence.items():
            assert int(frame.file_prevalence[frame.files.code_of(sha)]) \
                == expected

    def test_chunked_build_is_byte_identical(self, small_session):
        labeled = small_session.labeled
        whole = build_frame(labeled, chunk_rows=10**9)
        chunked = build_frame(labeled, chunk_rows=777)
        _frames_equal(whole, chunked)

    def test_chunk_rows_must_be_positive(self):
        with pytest.raises(ValueError):
            build_frame(_tiny_labeled(), chunk_rows=0)


class TestSessionMemo:
    def test_built_once_then_cache_hits(self):
        labeled = _tiny_labeled()
        clear_frame_cache()
        builds = obs_metrics.counter("analysis.frame_build")
        hits = obs_metrics.counter("analysis.frame_hits")
        built, hit = builds.value, hits.value
        first = session_frame(labeled)
        second = session_frame(labeled)
        assert second is first
        assert builds.value == built + 1
        assert hits.value == hit + 1

    def test_clear_cache_forces_rebuild(self):
        labeled = _tiny_labeled()
        clear_frame_cache()
        first = session_frame(labeled)
        clear_frame_cache()
        assert session_frame(labeled) is not first

    def test_session_object_exposes_frame(self, small_session):
        frame = small_session.frame()
        assert frame.n_events == len(small_session.labeled.dataset.events)
        assert frame is session_frame(
            small_session.labeled, small_session.alexa
        )


class TestAlexaSideTable:
    def test_buckets_match_rank_thresholds(self):
        labeled = _tiny_labeled()
        frame = build_frame(labeled)
        assert not frame.has_alexa
        frame.attach_alexa(AlexaService({"example.com": 500}))
        assert frame.has_alexa
        ranked = frame.domains.code_of("example.com")
        unranked = frame.domains.code_of("example.net")
        assert int(frame.domain_rank[ranked]) == 500
        assert int(frame.domain_rank[unranked]) == ABSENT
        buckets = frame.event_alexa_bucket
        domains = frame.event_domain
        assert all(
            int(buckets[i]) == (0 if domains[i] == ranked
                                else ALEXA_BUCKET_UNRANKED)
            for i in range(frame.n_events)
        )

    def test_cached_frame_upgraded_in_place(self):
        labeled = _tiny_labeled()
        clear_frame_cache()
        bare = session_frame(labeled)
        assert not bare.has_alexa
        upgraded = session_frame(labeled, AlexaService({"example.com": 10}))
        assert upgraded is bare
        assert upgraded.has_alexa

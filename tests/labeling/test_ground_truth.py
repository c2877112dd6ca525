"""Tests for the labeling policy and the LabeledDataset container."""

import gc
from collections import Counter

import pytest

from repro.labeling.ground_truth import (
    LIKELY_BENIGN_SPAN_DAYS,
    build_labeler,
    label_world,
)
from repro.labeling.labels import FileLabel, UrlLabel
from repro.labeling.virustotal import VirusTotalSimulator, VTReport


class TestPolicyOnWorld:
    """The constructed services must reproduce the intended labels."""

    def test_round_trip_agreement(self, medium_session):
        world = medium_session.world
        labeled = medium_session.labeled
        agree = sum(
            1
            for sha, label in labeled.file_labels.items()
            if world.corpus.files[sha].observed_class == label
        )
        assert agree / len(labeled.file_labels) > 0.98

    def test_all_files_labeled(self, medium_session):
        labeled = medium_session.labeled
        assert set(labeled.file_labels) == set(labeled.dataset.files)
        assert set(labeled.process_labels) == set(labeled.dataset.processes)
        assert set(labeled.url_labels) == set(labeled.dataset.urls)

    def test_ecosystem_processes_labeled_benign(self, medium_session):
        corpus = medium_session.world.corpus
        labeled = medium_session.labeled
        for sha in labeled.dataset.processes:
            if sha in corpus.benign_processes:
                assert labeled.process_labels[sha] == FileLabel.BENIGN

    def test_types_only_for_malicious(self, medium_session):
        labeled = medium_session.labeled
        for sha in labeled.file_types:
            assert labeled.file_labels[sha] == FileLabel.MALICIOUS
        for sha in labeled.file_families:
            assert labeled.file_labels[sha] == FileLabel.MALICIOUS

    def test_spawned_process_shares_file_label(self, medium_session):
        labeled = medium_session.labeled
        shared = set(labeled.file_labels) & set(labeled.process_labels)
        for sha in list(shared)[:300]:
            assert labeled.file_labels[sha] == labeled.process_labels[sha]

    def test_url_labels_present(self, medium_session):
        counts = medium_session.labeled.url_label_counts()
        assert counts[UrlLabel.BENIGN] > 0
        assert counts[UrlLabel.MALICIOUS] > 0
        assert counts[UrlLabel.UNKNOWN] > 0


class TestReportLifetime:
    """A VT report lives only while its hash's verdict is derived."""

    def test_no_report_reachable_after_build_session(self, small_session):
        gc.collect()
        shas = small_session.dataset.files
        kept = [
            obj for obj in gc.get_objects()
            if isinstance(obj, VTReport) and obj.sha1 in shas
        ]
        assert kept == []

    def test_one_report_per_unwhitelisted_hash(self, small_session,
                                               monkeypatch):
        built = Counter()
        build_report = VirusTotalSimulator._build_report

        def counting(simulator, file):
            built[file.sha1] += 1
            return build_report(simulator, file)

        monkeypatch.setattr(VirusTotalSimulator, "_build_report", counting)
        labeler = build_labeler(small_session.world, small_session.dataset)
        labeled = labeler.label_dataset(small_session.dataset)
        dataset = small_session.dataset
        hashes = set(dataset.files) | set(dataset.processes)
        assert set(built) == {
            sha for sha in hashes if sha not in labeler._whitelist
        }
        assert set(built.values()) == {1}
        assert labeled.file_labels == small_session.labeled.file_labels
        assert labeled.file_types == small_session.labeled.file_types
        assert labeled.type_resolution_fractions == (
            small_session.labeled.type_resolution_fractions
        )


class TestLabeledDatasetAccessors:
    def test_label_counts_sum(self, small_session):
        labeled = small_session.labeled
        assert sum(labeled.label_counts().values()) == len(labeled.dataset.files)

    def test_files_with_label(self, small_session):
        labeled = small_session.labeled
        unknown = labeled.files_with_label(FileLabel.UNKNOWN)
        assert unknown
        assert all(
            labeled.file_labels[sha] == FileLabel.UNKNOWN for sha in unknown
        )

    def test_type_of_none_for_benign(self, small_session):
        labeled = small_session.labeled
        benign = next(iter(labeled.files_with_label(FileLabel.BENIGN)))
        assert labeled.type_of(benign) is None

    def test_month_slice_consistency(self, small_session):
        labeled = small_session.labeled
        january = labeled.month_slice(0)
        assert set(january.file_labels) == set(january.dataset.files)
        for sha, label in january.file_labels.items():
            assert labeled.file_labels[sha] == label
        assert len(january.dataset.events) < len(labeled.dataset.events)

    def test_constant_threshold(self):
        assert LIKELY_BENIGN_SPAN_DAYS == 14.0

    def test_label_world_convenience(self, small_session):
        # label_world with an explicit dataset reproduces the fixture.
        labeled = label_world(small_session.world, small_session.dataset)
        assert labeled.label_counts() == small_session.labeled.label_counts()


class TestQueryDayEffect:
    """Section II-B: labels mature as the AV ecosystem catches up."""

    def test_early_query_knows_less(self, small_session):
        from repro.labeling.ground_truth import build_labeler

        early = build_labeler(
            small_session.world, small_session.dataset, query_day=60.0
        )
        late = small_session.labeler  # final (two-year) query
        # The whole file table: a prefix slice is sensitive to table
        # order (first-seen download order), which skews toward early,
        # already-matured files and can wash out the effect.
        sample = list(small_session.dataset.files)
        early_malicious = sum(
            1 for sha in sample
            if early.label_hash(sha) == FileLabel.MALICIOUS
        )
        late_malicious = sum(
            1 for sha in sample
            if late.label_hash(sha) == FileLabel.MALICIOUS
        )
        assert early_malicious < late_malicious

    def test_unknowns_never_gain_labels(self, small_session):
        from repro.labeling.ground_truth import build_labeler

        late = small_session.labeler
        early = build_labeler(
            small_session.world, small_session.dataset, query_day=60.0
        )
        unknown_at_end = [
            sha for sha, label in small_session.labeled.file_labels.items()
            if label == FileLabel.UNKNOWN
        ][:300]
        for sha in unknown_at_end:
            assert early.label_hash(sha) == FileLabel.UNKNOWN
            assert late.label_hash(sha) == FileLabel.UNKNOWN


class TestLabelDistribution:
    def test_unknown_dominates(self, medium_session):
        counts = medium_session.labeled.label_counts()
        total = sum(counts.values())
        assert counts[FileLabel.UNKNOWN] / total > 0.7

    def test_malicious_exceeds_benign(self, medium_session):
        counts = medium_session.labeled.label_counts()
        assert counts[FileLabel.MALICIOUS] > counts[FileLabel.BENIGN]

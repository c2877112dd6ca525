"""Unit tests for the VirusTotal-style scanning service simulator."""

import pytest

from repro.labeling.av import TRUSTED_ENGINES
from repro.labeling.labels import FileLabel, MalwareType
from repro.labeling.virustotal import FINAL_QUERY_DAY, VirusTotalSimulator
from repro.synth.entities import SyntheticFile


def _file(observed, latent_malicious=False, latent_type=None, sha="a" * 40):
    return SyntheticFile(
        sha1=sha,
        file_name="x.exe",
        size_bytes=100_000,
        observed_class=observed,
        latent_malicious=latent_malicious,
        latent_type=latent_type,
        family="zbot" if latent_malicious else None,
        signer=None,
        ca=None,
        packer=None,
        home_domain="example.com",
        url="http://dl.example.com/x.exe",
        via_browser=True,
        target_prevalence=1,
    )


def _simulator(files, seed=0):
    return VirusTotalSimulator(
        {f.sha1: f for f in files}, seed=seed,
        first_seen={f.sha1: 10.0 for f in files},
    )


class TestReportsPerClass:
    def test_unknown_files_have_no_report(self):
        vt = _simulator([_file(FileLabel.UNKNOWN)])
        assert vt.query("a" * 40) is None

    def test_unseen_hash_has_no_report(self):
        vt = _simulator([])
        assert vt.query("f" * 40) is None

    def test_malicious_file_detected_by_trusted_engine(self):
        shas = [format(i, "040x") for i in range(30)]
        files = [
            _file(FileLabel.MALICIOUS, True, MalwareType.DROPPER, sha)
            for sha in shas
        ]
        vt = _simulator(files)
        for sha in shas:
            report = vt.query(sha, FINAL_QUERY_DAY)
            assert report is not None
            detections = report.detections_at(FINAL_QUERY_DAY)
            assert any(e in TRUSTED_ENGINES for e in detections)

    def test_likely_malicious_never_trusted(self):
        shas = [format(i, "040x") for i in range(30)]
        files = [_file(FileLabel.LIKELY_MALICIOUS, False, None, sha)
                 for sha in shas]
        vt = _simulator(files)
        for sha in shas:
            detections = vt.query(sha).detections_at(FINAL_QUERY_DAY)
            assert detections
            assert not any(e in TRUSTED_ENGINES for e in detections)

    def test_likely_benign_short_scan_span(self):
        shas = [format(i, "040x") for i in range(20)]
        vt = _simulator([_file(FileLabel.LIKELY_BENIGN, sha=sha) for sha in shas])
        for sha in shas:
            report = vt.query(sha)
            assert report.scan_span_days < 14
            assert not report.detections_at(FINAL_QUERY_DAY)

    def test_benign_report_clean_and_long_span(self):
        shas = [format(i, "040x") for i in range(40)]
        vt = _simulator([_file(FileLabel.BENIGN, sha=sha) for sha in shas])
        reports = [vt.query(sha) for sha in shas]
        present = [r for r in reports if r is not None]
        assert present, "some benign files should have VT reports"
        for report in present:
            assert report.scan_span_days >= 14
            assert not report.detections_at(FINAL_QUERY_DAY)


class TestTimeEvolution:
    def test_detections_grow_over_time(self):
        shas = [format(i, "040x") for i in range(50)]
        files = [
            _file(FileLabel.MALICIOUS, True, MalwareType.TROJAN, sha)
            for sha in shas
        ]
        vt = _simulator(files)
        early_total = 0
        late_total = 0
        for sha in shas:
            report = vt.query(sha, FINAL_QUERY_DAY)
            early_total += len(report.detections_at(30.0))
            late_total += len(report.detections_at(FINAL_QUERY_DAY))
        assert late_total > early_total

    def test_query_before_first_scan_returns_none(self):
        vt = _simulator([_file(FileLabel.BENIGN)])
        assert vt.query("a" * 40, day=0.0) is None


class TestDeterminism:
    def test_repeated_queries_identical(self):
        # Reports are not cached: a repeat query rebuilds an equal one.
        file = _file(FileLabel.MALICIOUS, True, MalwareType.BOT)
        vt = _simulator([file])
        first = vt.query(file.sha1)
        second = vt.query(file.sha1)
        assert first == second

    def test_fresh_simulator_same_seed_agrees(self):
        file = _file(FileLabel.MALICIOUS, True, MalwareType.BOT)
        first = _simulator([file], seed=5).query(file.sha1)
        second = _simulator([file], seed=5).query(file.sha1)
        assert first.detections == second.detections

    def test_seed_changes_reports(self):
        file = _file(FileLabel.MALICIOUS, True, MalwareType.BOT)
        first = _simulator([file], seed=5).query(file.sha1)
        second = _simulator([file], seed=6).query(file.sha1)
        assert first.detections != second.detections

"""Tests for the domain/URL analyses (Tables III-V, XIII; Figures 3/6)."""

import pytest

from repro.analysis.domains import (
    alexa_rank_distribution,
    domain_popularity,
    domains_per_type,
    files_per_domain,
    unknown_download_domains,
)
from repro.labeling.labels import FileLabel, MalwareType


class TestDomainPopularity:
    @pytest.fixture(scope="class")
    def popularity(self, medium_session):
        return domain_popularity(medium_session.labeled, n=10)

    def test_top_lists_sized_and_sorted(self, popularity):
        for column in (popularity.overall, popularity.benign,
                       popularity.malicious):
            assert 0 < len(column) <= 10
            counts = [count for _, count in column]
            assert counts == sorted(counts, reverse=True)

    def test_file_hosting_portals_on_top(self, popularity):
        top_names = {name for name, _ in popularity.overall[:6]}
        assert top_names & {
            "softonic.com", "inbox.com", "humipapp.com",
            "bestdownload-manager.com", "freepdf-converter.com",
        }

    def test_mixed_reputation_overlap(self, popularity):
        # Table III's finding: hosting portals appear in both the benign
        # and malicious top lists.
        benign_names = {name for name, _ in popularity.benign}
        malicious_names = {name for name, _ in popularity.malicious}
        assert benign_names & malicious_names


class TestFilesPerDomain:
    def test_shared_domains_exist(self, medium_session):
        report = files_per_domain(medium_session.labeled)
        assert report.shared_domains
        assert report.benign and report.malicious

    def test_counts_positive(self, medium_session):
        report = files_per_domain(medium_session.labeled)
        assert all(count > 0 for _, count in report.benign)
        assert all(count > 0 for _, count in report.malicious)


class TestDomainsPerType:
    @pytest.fixture(scope="class")
    def per_type(self, medium_session):
        return domains_per_type(medium_session.labeled, n=10)

    def test_fakeav_uses_social_engineering_domains(self, per_type):
        fakeav = per_type.get(MalwareType.FAKEAV, [])
        names = " ".join(name for name, _ in fakeav)
        assert any(
            token in names
            for token in ("adware", "defender", "virus", "antivirus")
        )

    def test_adware_uses_streaming_domains(self, per_type):
        adware = [name for name, _ in per_type.get(MalwareType.ADWARE, [])]
        assert any("media" in name or "vid" in name for name in adware)

    def test_every_reported_type_has_domains(self, per_type):
        for mtype, entries in per_type.items():
            assert entries, mtype


class TestUnknownDomains:
    def test_table_xiii_shape(self, medium_session):
        rows = unknown_download_domains(medium_session.labeled)
        assert 0 < len(rows) <= 10
        counts = [count for _, count in rows]
        assert counts == sorted(counts, reverse=True)

    def test_bundler_domains_dominate(self, medium_session):
        rows = unknown_download_domains(medium_session.labeled)
        names = {name for name, _ in rows[:6]}
        assert names & {
            "humipapp.com", "bestdownload-manager.com",
            "freepdf-converter.com", "inbox.com", "free-fileopener.com",
        }


class TestAlexaRanks:
    @pytest.fixture(scope="class")
    def distribution(self, medium_session):
        return alexa_rank_distribution(
            medium_session.labeled, medium_session.alexa
        )

    def test_ranks_sorted_and_positive(self, distribution):
        assert distribution.ranks[FileLabel.BENIGN]
        assert distribution.ranks[FileLabel.MALICIOUS]
        for ranks in distribution.ranks.values():
            assert ranks == sorted(ranks)
            assert all(rank >= 1 for rank in ranks)

    def test_unknown_hosting_mostly_unranked(self, distribution):
        # Figure 6: unknown files live on obscure domains.
        assert distribution.unranked_fraction[FileLabel.UNKNOWN] > 0.5

    def test_malicious_uses_higher_ranked_domains_than_benign(
        self, distribution
    ):
        # Figure 3: malicious files aggressively use high-Alexa domains.
        benign_cdf = dict(distribution.cdf(FileLabel.BENIGN))
        malicious_cdf = dict(distribution.cdf(FileLabel.MALICIOUS))
        assert malicious_cdf[10_000] >= benign_cdf[10_000] - 0.05

    def test_cdf_values_monotone(self, distribution):
        for label in (FileLabel.BENIGN, FileLabel.MALICIOUS, FileLabel.UNKNOWN):
            values = [f for _, f in distribution.cdf(label)]
            assert values == sorted(values)

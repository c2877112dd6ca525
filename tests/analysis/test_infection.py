"""Tests for the Figure 5 infection-timing analysis."""

import pytest

from repro.analysis.infection import SOURCES, infection_timing


@pytest.fixture(scope="module")
def report(medium_session):
    return infection_timing(medium_session.labeled)


class TestInfectionTiming:
    def test_all_sources_measured(self, report):
        assert set(report.deltas) == set(SOURCES)
        for source in ("dropper", "adware", "pup"):
            assert len(report.deltas[source]) > 20, source

    def test_deltas_nonnegative(self, report):
        for deltas in report.deltas.values():
            assert all(delta >= 0 for delta in deltas)

    def test_dropper_fastest_on_day_zero(self, report):
        # Figure 5: the dropper curve dominates everywhere early.
        dropper_day0 = report.fraction_within("dropper", 0.99)
        for source in ("benign", "adware", "pup"):
            assert dropper_day0 > report.fraction_within(source, 0.99)

    def test_dropper_faster_than_benign_within_five_days(self, report):
        assert report.fraction_within("dropper", 5) > (
            report.fraction_within("benign", 5)
        )

    def test_adware_pup_faster_than_benign_early(self, report):
        benign_day0 = report.fraction_within("benign", 0.99)
        assert report.fraction_within("adware", 0.99) > benign_day0
        assert report.fraction_within("pup", 0.99) > benign_day0

    def test_adware_pup_day0_near_paper(self, report):
        # Paper: >40% of adware/PUP machines get other malware on day 0.
        assert report.fraction_within("adware", 0.99) > 0.25
        assert report.fraction_within("pup", 0.99) > 0.25

    def test_cdf_points_monotone(self, report):
        for source in SOURCES:
            values = [fraction for _, fraction in report.cdf(source)]
            assert values == sorted(values)
            assert all(0.0 <= value <= 1.0 for value in values)

    def test_empty_source_fraction_zero(self, report):
        assert report.fraction_within("benign", -1.0) == 0.0

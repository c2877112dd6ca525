"""Tests for the shared analysis helpers."""

from repro.analysis.common import cdf_points, top_n
from repro.labeling.labels import FileLabel

from .scalar_reference import benign_process_shas


class TestCdfPoints:
    def test_basic_cdf(self):
        points = cdf_points([1, 2, 2, 10], [1, 2, 5, 10])
        assert points == [(1, 0.25), (2, 0.75), (5, 0.75), (10, 1.0)]

    def test_empty_values(self):
        assert cdf_points([], [1, 2]) == [(1, 0.0), (2, 0.0)]

    def test_monotone(self):
        points = cdf_points([3, 1, 4, 1, 5], [0, 1, 2, 3, 4, 5, 6])
        fractions = [fraction for _, fraction in points]
        assert fractions == sorted(fractions)


class TestTopN:
    def test_sorted_by_count_then_key(self):
        counter = {"b": 3, "a": 3, "c": 9}
        assert top_n(counter, 2) == [("c", 9), ("a", 3)]

    def test_n_larger_than_items(self):
        assert top_n({"x": 1}, 10) == [("x", 1)]


class TestDatasetHelpers:
    """The scalar oracle's process filter (``scalar_reference``)."""

    def test_benign_process_shas_labeled_benign(self, small_session):
        labeled = small_session.labeled
        for sha in benign_process_shas(labeled):
            assert labeled.process_labels[sha] == FileLabel.BENIGN

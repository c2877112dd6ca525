"""Property tests for the online learning half of the serve subsystem.

Covers the :class:`OnlineRuleClassifier` retrain cadence and rolling
windows, the equivalence of a windowed online retrain with a direct
batch PART fit on the same instances, label-maturity rescans, and the
label-distribution drift detector.
"""

import pytest

from repro.core.dataset import BENIGN_CLASS, Instance, MALICIOUS_CLASS
from repro.core.drift import DistributionDriftDetector
from repro.core.online import OnlineRuleClassifier
from repro.core.part import PartLearner
from repro.labeling.rescan import RescanScheduler
from repro.labeling.virustotal import FINAL_QUERY_DAY

SCHEMA = ("signer", "packer")


def _feed(online, count, start_day=0.0, shas=False):
    for index in range(count):
        day = start_day + index * 0.1
        sha = f"{index:040x}" if shas else None
        if index % 2:
            online.observe(("somoto", "nsis"), MALICIOUS_CLASS, day, sha1=sha)
        else:
            online.observe(("teamviewer", "inno"), BENIGN_CLASS, day, sha1=sha)


class TestRetrainCadence:
    def test_due_before_any_training(self):
        online = OnlineRuleClassifier(SCHEMA, retrain_interval_days=30)
        assert online._retrain_due(0.0)

    def test_due_exactly_at_the_interval(self):
        online = OnlineRuleClassifier(SCHEMA, retrain_interval_days=30)
        _feed(online, 10)
        online.retrain(now=10.0)
        assert not online._retrain_due(39.999)
        assert online._retrain_due(40.0)

    def test_classify_retrains_on_cadence_only(self):
        online = OnlineRuleClassifier(SCHEMA, retrain_interval_days=30)
        _feed(online, 20)
        for now in (1.0, 5.0, 29.0):
            online.classify(("somoto", "nsis"), now=now)
        assert online.retrain_count == 1
        online.classify(("somoto", "nsis"), now=31.0)
        assert online.retrain_count == 2

    def test_window_override_validates(self):
        online = OnlineRuleClassifier(SCHEMA)
        _feed(online, 4)
        with pytest.raises(ValueError):
            online.retrain(now=10.0, window_days=0.0)

    def test_out_of_order_observation_rejected(self):
        online = OnlineRuleClassifier(SCHEMA)
        online.observe(("a", "b"), BENIGN_CLASS, 5.0)
        with pytest.raises(ValueError):
            online.observe(("a", "b"), BENIGN_CLASS, 4.0)


class TestRollingWindow:
    def test_override_prunes_to_the_requested_window(self):
        online = OnlineRuleClassifier(SCHEMA, window_days=1000.0)
        for day in (0.0, 10.0, 20.0, 30.0):
            online.observe(("a", "b"), BENIGN_CLASS, day)
        online.retrain(now=30.0, window_days=15.0)
        assert online.observation_count == 2  # days 20 and 30 survive

    def test_windowed_retrain_equals_direct_part_fit(self):
        """A rolling retrain is a plain batch PART fit on the window.

        Observations carry sha1 keys, so the online learner must present
        instances in canonical hash order -- the same order
        ``TrainingSet.from_labeled`` would -- before fitting.
        """
        online = OnlineRuleClassifier(SCHEMA, tau=0.2)
        _feed(online, 30, start_day=0.0, shas=True)
        _feed(online, 30, start_day=100.0, shas=True)
        selected = online.retrain(now=103.0, window_days=10.0)
        # Expected: fit only the second block, sorted by sha1.
        instances = []
        for index in range(30):
            sha = f"{index:040x}"
            label = MALICIOUS_CLASS if index % 2 else BENIGN_CLASS
            values = ("somoto", "nsis") if index % 2 else ("teamviewer", "inno")
            instances.append((sha, Instance(values=values, label=label)))
        instances.sort(key=lambda pair: pair[0])
        expected = (
            PartLearner(SCHEMA)
            .fit([instance for _, instance in instances])
            .select(0.2, min_coverage=1)
        )
        assert repr(list(selected)) == repr(list(expected))

    def test_retrain_is_deterministic(self):
        results = []
        for _ in range(2):
            online = OnlineRuleClassifier(SCHEMA)
            _feed(online, 40, shas=True)
            results.append(repr(list(online.retrain(now=50.0))))
        assert results[0] == results[1]


class TestDriftDetector:
    def test_no_shift_on_a_stable_distribution(self):
        detector = DistributionDriftDetector(window=10, threshold=0.25)
        for _ in range(50):
            assert detector.observe("benign") is None
        assert detector.shifts == []

    def test_shift_fires_on_an_injected_flip(self):
        detector = DistributionDriftDetector(window=10, threshold=0.25)
        for _ in range(20):
            detector.observe("benign")
        shift = None
        for _ in range(10):
            shift = detector.observe("malicious") or shift
        assert shift is not None
        assert shift.distance > 0.25
        assert detector.shifts, "the shift must be recorded"

    def test_reference_rebases_after_a_shift(self):
        detector = DistributionDriftDetector(window=10, threshold=0.25)
        for _ in range(20):
            detector.observe("benign")
        for _ in range(20):
            detector.observe("malicious")
        fired = len(detector.shifts)
        assert fired >= 1
        # The new regime is now the reference: staying there is quiet.
        for _ in range(50):
            detector.observe("malicious")
        assert len(detector.shifts) == fired

    def test_total_variation_distance(self):
        detector = DistributionDriftDetector(window=4, threshold=1.0)
        for _ in range(4):
            detector.observe("a")  # freezes the all-"a" reference
        for _ in range(4):
            detector.observe("b")  # window now all "b"
        assert detector.distance() == pytest.approx(1.0)
        detector = DistributionDriftDetector(window=4, threshold=1.0)
        for _ in range(8):
            detector.observe("a")
        assert detector.distance() == pytest.approx(0.0)


class TestRescanLabeling:
    def test_labels_mature_through_rescans(self, small_session):
        """With an unbounded maturity horizon, rescanned labels converge
        to the matured ground truth once the clock passes the paper's
        final query day."""
        labeler = small_session.labeler
        scheduler = RescanScheduler(labeler, mature_after_days=float("inf"))
        hashes = list(small_session.dataset.files)[:50]
        for sha in hashes:
            scheduler.track(sha, 0.0)
        scheduler.advance(FINAL_QUERY_DAY + 2 * scheduler.interval_days)
        for sha in hashes:
            assert scheduler.label_of(sha) == labeler.label_hash(sha)

    def test_immature_labels_can_flip(self, small_session):
        """At least one early label differs from the matured one."""
        labeler = small_session.labeler
        flipped = 0
        for sha in small_session.dataset.files:
            if labeler.label_hash_at(sha, 0.5) != labeler.label_hash(sha):
                flipped += 1
        assert flipped > 0

    def test_final_query_day_identity(self, small_session):
        """``label_hash_at`` at the final query day is ``label_hash``."""
        labeler = small_session.labeler
        for sha in list(small_session.dataset.files)[:500]:
            assert (
                labeler.label_hash_at(sha, FINAL_QUERY_DAY)
                == labeler.label_hash(sha)
            )

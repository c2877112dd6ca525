"""Tests for the online (sliding-window) rule classifier."""

import pytest

from repro.core.dataset import BENIGN_CLASS, Instance, MALICIOUS_CLASS
from repro.core.online import OnlineRuleClassifier
from repro.core.part import PartLearner

SCHEMA = ("signer", "packer")


def _feed(classifier, count, start_day=0.0):
    for index in range(count):
        day = start_day + index * 0.1
        if index % 2:
            classifier.observe(("somoto", "nsis"), MALICIOUS_CLASS, day)
        else:
            classifier.observe(("teamviewer", "inno"), BENIGN_CLASS, day)


class TestLifecycle:
    def test_first_classify_trains(self):
        online = OnlineRuleClassifier(SCHEMA)
        _feed(online, 20)
        decision = online.classify(("somoto", "nsis"), now=5.0)
        assert online.retrain_count == 1
        assert decision.label == MALICIOUS_CLASS

    def test_no_retrain_within_interval(self):
        online = OnlineRuleClassifier(SCHEMA, retrain_interval_days=30)
        _feed(online, 20)
        online.classify(("somoto", "nsis"), now=5.0)
        online.classify(("teamviewer", "inno"), now=10.0)
        assert online.retrain_count == 1

    def test_retrain_after_interval(self):
        online = OnlineRuleClassifier(SCHEMA, retrain_interval_days=30)
        _feed(online, 20)
        online.classify(("somoto", "nsis"), now=5.0)
        online.classify(("somoto", "nsis"), now=40.0)
        assert online.retrain_count == 2

    def test_due_exactly_at_the_interval(self):
        online = OnlineRuleClassifier(SCHEMA, retrain_interval_days=30)
        _feed(online, 10)
        online.retrain(now=10.0)
        online.classify(("somoto", "nsis"), now=39.999)
        assert online.retrain_count == 1
        online.classify(("somoto", "nsis"), now=40.0)
        assert online.retrain_count == 2

    def test_window_drops_stale_observations(self):
        online = OnlineRuleClassifier(SCHEMA, window_days=10)
        _feed(online, 20, start_day=0.0)   # all around day 0-2
        _feed(online, 20, start_day=50.0)  # around day 50-52
        online.retrain(now=55.0)
        assert online.observation_count == 20

    def test_rules_adapt_to_new_window(self):
        online = OnlineRuleClassifier(SCHEMA, window_days=10,
                                      retrain_interval_days=10)
        # Old regime: 'somoto' is malicious.
        _feed(online, 20, start_day=0.0)
        assert online.classify(("somoto", "nsis"), now=3.0).label == (
            MALICIOUS_CLASS
        )
        # New regime: the signer is rehabilitated (and some other signer
        # turns malicious, so the window still has two classes).
        for index in range(20):
            day = 50.0 + index * 0.1
            if index % 2:
                online.observe(("somoto", "nsis"), BENIGN_CLASS, day)
            else:
                online.observe(("evilcorp", "themida"), MALICIOUS_CLASS, day)
        decision = online.classify(("somoto", "nsis"), now=60.0)
        # The stale malicious verdict must be gone.  (PART may express
        # the rehabilitated signer via the default rule, which the
        # unordered rule set drops, so "no decision" is also acceptable.)
        assert decision.label != MALICIOUS_CLASS
        assert online.classify(("evilcorp", "themida"), now=60.0).label == (
            MALICIOUS_CLASS
        )

    def test_windowed_retrain_equals_direct_part_fit(self):
        """A retrain is a plain PART fit of the in-window observations,
        in arrival order."""
        online = OnlineRuleClassifier(SCHEMA, tau=0.2, window_days=10)
        _feed(online, 30, start_day=0.0)  # stale: 'somoto' malicious
        window = [
            (("evilcorp", "themida"), MALICIOUS_CLASS),
            (("somoto", "nsis"), BENIGN_CLASS),
            (("somoto", "upx"), MALICIOUS_CLASS),
            (("teamviewer", "inno"), BENIGN_CLASS),
        ] * 8
        for index, (values, label) in enumerate(window):
            online.observe(values, label, 100.0 + index * 0.1)
        selected = online.retrain(now=104.0)
        expected = (
            PartLearner(SCHEMA)
            .fit([Instance(values=values, label=label)
                  for values, label in window])
            .select(0.2)
        )
        assert online.observation_count == len(window)
        assert len(selected) > 0
        assert repr(list(selected)) == repr(list(expected))

    def test_empty_window_classifies_nothing(self):
        online = OnlineRuleClassifier(SCHEMA)
        decision = online.classify(("somoto", "nsis"), now=0.0)
        assert decision.label is None
        assert not decision.matched


class TestValidation:
    def test_invalid_label_rejected(self):
        online = OnlineRuleClassifier(SCHEMA)
        with pytest.raises(ValueError):
            online.observe(("a", "b"), "weird", 0.0)

    def test_out_of_order_observations_rejected(self):
        online = OnlineRuleClassifier(SCHEMA)
        online.observe(("a", "b"), BENIGN_CLASS, 5.0)
        with pytest.raises(ValueError):
            online.observe(("a", "b"), BENIGN_CLASS, 4.0)

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            OnlineRuleClassifier(SCHEMA, window_days=0)
        with pytest.raises(ValueError):
            OnlineRuleClassifier(SCHEMA, retrain_interval_days=-1)

    def test_current_rules_empty_before_training(self):
        online = OnlineRuleClassifier(SCHEMA)
        assert len(online.current_rules) == 0

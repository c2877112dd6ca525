"""Tests for the month-over-month evaluation harness (Tables XVI/XVII)."""

import pytest

from repro.core.dataset import TrainingSet
from repro.core.evaluation import (
    evaluate_month_pair,
    full_evaluation,
    learn_rules,
    validate_against_latent,
)


@pytest.fixture(scope="module")
def one_pair(medium_session):
    return evaluate_month_pair(
        medium_session.labeled, medium_session.alexa, 0, taus=(0.0, 0.001)
    )


class TestMonthPair:
    def test_two_tau_settings(self, one_pair):
        assert [run.evaluation.tau for run in one_pair] == [0.0, 0.001]

    def test_january_window_learns_rules(self, medium_session):
        rules, training = learn_rules(
            medium_session.labeled, medium_session.alexa, 0
        )
        assert len(rules) > 10
        assert len(training) > 100

    def test_train_test_intersection_empty(self, medium_session):
        labeled = medium_session.labeled
        rules, training = learn_rules(labeled, medium_session.alexa, 0)
        train_shas = {i.sha1 for i in training.instances}
        test = TrainingSet.from_labeled(
            labeled.month_slice(1), medium_session.alexa,
            exclude_sha1s=train_shas,
        )
        assert not train_shas & {i.sha1 for i in test.instances}

    def test_tp_rate_high(self, one_pair):
        for run in one_pair:
            assert run.evaluation.tp_rate > 0.9

    def test_fp_rate_low(self, one_pair):
        for run in one_pair:
            assert run.evaluation.fp_rate < 0.15

    def test_selected_rules_have_low_error(self, one_pair):
        for run in one_pair:
            for rule in run.selected:
                assert rule.error_rate <= run.evaluation.tau + 1e-9

    def test_unknown_decision_accounting(self, one_pair):
        for run in one_pair:
            row = run.evaluation
            decided = row.unknown_malicious + row.unknown_benign
            assert decided <= row.unknown_total
            assert len(run.unknown_decisions) == row.unknown_total
            decided_in_map = sum(
                1 for label in run.unknown_decisions.values()
                if label is not None
            )
            assert decided_in_map == decided

    def test_invalid_train_month_rejected(self, medium_session):
        with pytest.raises(ValueError):
            evaluate_month_pair(
                medium_session.labeled, medium_session.alexa, 6
            )


class TestFullEvaluation:
    @pytest.fixture(scope="class")
    def evaluation(self, medium_session):
        return full_evaluation(
            medium_session.labeled, medium_session.alexa, taus=(0.001,)
        )

    def test_six_month_pairs(self, evaluation):
        assert len(evaluation.runs) == 6
        assert len(evaluation.extraction_rows()) == 6
        assert len(evaluation.evaluation_rows()) == 6

    def test_label_expansion_statistics(self, evaluation):
        stats = evaluation.label_expansion(0.001)
        assert 0.1 < stats["labeled_fraction"] < 0.5
        assert stats["labeled_unknowns"] <= stats["total_unknowns"]
        assert stats["expansion_pct"] > 100.0

    def test_file_signer_dominates_rules(self, evaluation):
        usage = evaluation.feature_usage(0.001)
        assert usage["file_signer"] > 0.5
        assert usage["file_signer"] == max(usage.values())

    def test_single_condition_rules_common(self, evaluation):
        assert evaluation.single_condition_fraction(0.001) > 0.4

    def test_runs_at_unknown_tau_empty(self, evaluation):
        assert evaluation.runs_at(0.5) == []

    def test_empty_taus_rejected_before_any_fit(self, medium_session,
                                                monkeypatch):
        from repro.core import evaluation as evaluation_mod

        def no_fit(*args, **kwargs):
            raise AssertionError("a rule set was learned")

        monkeypatch.setattr(evaluation_mod, "learn_rules", no_fit)
        with pytest.raises(ValueError, match="at least one tau"):
            full_evaluation(
                medium_session.labeled, medium_session.alexa, taus=()
            )


class TestLatentValidation:
    def test_rule_labels_agree_with_latent_truth(self, medium_session, one_pair):
        run = one_pair[1]  # tau = 0.1%
        report = validate_against_latent(
            medium_session.world, run.unknown_decisions
        )
        # The bonus check: rule-assigned labels on unknowns should agree
        # strongly with the latent nature of the synthetic files.  The
        # residual disagreement comes from shared signers, which is the
        # failure mode the paper's FP discussion anticipates.
        assert report["agreement"] > 0.75
        assert report["malicious_precision"] > 0.7
        assert report["benign_precision"] > 0.7

    def test_validation_counts_consistent(self, medium_session, one_pair):
        run = one_pair[0]
        report = validate_against_latent(
            medium_session.world, run.unknown_decisions
        )
        decided = sum(
            1 for label in run.unknown_decisions.values() if label is not None
        )
        total = (
            report["malicious_correct"] + report["malicious_wrong"]
            + report["benign_correct"] + report["benign_wrong"]
        )
        assert total == decided

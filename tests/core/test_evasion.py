"""Unit tests for the Section VII evasion transforms."""

import numpy as np
import pytest

from repro.core.classifier import RuleBasedClassifier
from repro.core.dataset import MALICIOUS_CLASS
from repro.core.evasion import (
    match_rate,
    resign_fresh,
    resign_stolen,
    strip_signatures,
)
from repro.core.features import FEATURE_NAMES, NO_CA, UNSIGNED, FeatureVector
from repro.core.rules import Condition, Rule, RuleSet


def _vector(sha, signer="Somoto Ltd.", ca="thawte code signing ca g2"):
    values = {
        "file_signer": signer,
        "file_ca": ca,
        "file_packer": "NSIS",
        "proc_signer": UNSIGNED,
        "proc_ca": NO_CA,
        "proc_packer": "<unpacked>",
        "proc_type": "browser",
        "alexa_bin": "unranked",
    }
    return FeatureVector(sha, tuple(values[name] for name in FEATURE_NAMES))


@pytest.fixture()
def vectors():
    return {f"{i:040d}": _vector(f"{i:040d}") for i in range(20)}


class TestResignFresh:
    def test_all_signers_replaced_and_unique(self, vectors):
        rng = np.random.default_rng(0)
        modified = resign_fresh(vectors, rng, certificates_per_campaign=1)
        signers = {v.value("file_signer") for v in modified.values()}
        assert len(signers) == len(vectors)
        assert "Somoto Ltd." not in signers

    def test_campaign_reuse(self, vectors):
        rng = np.random.default_rng(0)
        modified = resign_fresh(vectors, rng, certificates_per_campaign=10)
        signers = {v.value("file_signer") for v in modified.values()}
        assert len(signers) == 2  # 20 files / 10 per certificate

    def test_other_features_untouched(self, vectors):
        rng = np.random.default_rng(0)
        modified = resign_fresh(vectors, rng)
        for sha, vector in modified.items():
            assert vector.value("file_packer") == "NSIS"
            assert vector.value("proc_type") == "browser"
            assert vector.file_sha1 == sha

    def test_invalid_campaign_size(self, vectors):
        with pytest.raises(ValueError):
            resign_fresh(vectors, np.random.default_rng(0), 0)


class TestResignStolen:
    def test_uses_given_pool(self, vectors):
        rng = np.random.default_rng(1)
        modified = resign_stolen(vectors, rng, ["TeamViewer", "Dell Inc."])
        signers = {v.value("file_signer") for v in modified.values()}
        assert signers <= {"TeamViewer", "Dell Inc."}

    def test_empty_pool_rejected(self, vectors):
        with pytest.raises(ValueError):
            resign_stolen(vectors, np.random.default_rng(1), [])


class TestStripSignatures:
    def test_all_unsigned(self, vectors):
        modified = strip_signatures(vectors)
        for vector in modified.values():
            assert vector.value("file_signer") == UNSIGNED
            assert vector.value("file_ca") == NO_CA


class TestMatchRate:
    def _classifier(self):
        rule = Rule(
            conditions=(
                Condition(
                    "file_signer",
                    FEATURE_NAMES.index("file_signer"),
                    "Somoto Ltd.",
                ),
            ),
            prediction=MALICIOUS_CLASS,
            coverage=10,
            errors=0,
        )
        return RuleBasedClassifier(RuleSet([rule]))

    def test_original_vectors_all_detected(self, vectors):
        rates = match_rate(self._classifier(), vectors.values())
        assert rates["malicious"] == 1.0

    def test_fresh_resigning_evades_signer_rule(self, vectors):
        rng = np.random.default_rng(2)
        modified = resign_fresh(vectors, rng)
        rates = match_rate(self._classifier(), modified.values())
        assert rates["malicious"] == 0.0

    def test_empty_input(self):
        rates = match_rate(self._classifier(), [])
        assert rates == {"matched": 0.0, "malicious": 0.0, "rejected": 0.0}

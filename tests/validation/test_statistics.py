"""The fidelity gate's statistics must have power, not just run.

Three layers:

* **Property-based** (hypothesis): samples drawn *from* a target
  distribution must pass the gate's verdict rule, and samples from a
  deliberately perturbed distribution must fail it.  The perturbation
  tests prove the acceptance claim directly: a mix with any single
  category shifted by >= 10 percentage points (total variation 0.10) is
  rejected at every categorical tolerance the target registry uses.
* **Differential** (scipy, skipped when absent -- CI has no scipy):
  the scipy-free p-value machinery matches the reference
  implementations.
* **Unit**: edge cases -- degenerate bins, pooling, empty samples,
  exact rates.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.validation import (
    DEFAULT_P_FLOOR,
    all_targets,
    binomial_rate_test,
    chi2_sf,
    chi_square_gof,
    kolmogorov_sf,
    ks_2samp,
    total_variation,
    wilson_interval,
)

try:
    from scipy import stats as scipy_stats  # type: ignore
    from scipy import special as scipy_special  # type: ignore
except ImportError:  # pragma: no cover - CI has no scipy
    scipy_stats = None
    scipy_special = None

needs_scipy = pytest.mark.skipif(
    scipy_stats is None, reason="scipy not installed (differential oracle)"
)


def _passes_gate(outcome, tolerance: float) -> bool:
    """The validator's per-target verdict rule."""
    return outcome.p_value >= DEFAULT_P_FLOOR or outcome.effect <= tolerance


def _mix(probs):
    return {f"cat{i}": p for i, p in enumerate(probs)}


# Categorical mix tolerances actually used by the registry at the
# acceptance scale, excluding the documented scale-artifact targets
# (their scale_slack exists precisely because the distinct-entity mixes
# skew below full scale).
def _registry_mix_tolerances(scale: float = 0.02):
    return {
        spec.name: spec.tolerance_at(scale)
        for spec in all_targets()
        if spec.kind == "categorical" and spec.scale_slack == 0.0
    }


# ----------------------------------------------------------------------
# Property: faithful samples pass
# ----------------------------------------------------------------------


@st.composite
def _mix_probs(draw, min_k=2, max_k=8):
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=k, max_size=k,
        )
    )
    total = sum(weights)
    return [w / total for w in weights]


class TestFaithfulSamplesPass:
    @given(probs=_mix_probs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_multinomial_from_target_passes(self, probs, seed):
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(20_000, probs)
        outcome = chi_square_gof(_mix(counts), _mix(probs))
        # Dual verdict rule: either the p-value explains the deviation
        # as noise, or the effect is tiny.  At n=20k TVD noise is ~0.01,
        # far inside the tightest registry tolerance (0.05).
        assert _passes_gate(outcome, tolerance=0.05)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ks_same_distribution_passes(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=5_000)
        b = rng.normal(size=5_000)
        outcome = ks_2samp(a, b)
        # 0.08 is the prevalence_tail_malicious tolerance; same-law
        # samples at n=5k exceed it with probability ~2e-14.  At n=2k
        # that probability is ~5e-6, which hypothesis does reach: seed
        # 511035 draws D=0.0815, p=3e-6 (scipy agrees), and the example
        # database then replays it on every run.
        assert _passes_gate(outcome, tolerance=0.08)

    @given(
        rate=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_binomial_at_expected_rate_passes(self, rate, seed):
        rng = np.random.default_rng(seed)
        successes = int(rng.binomial(5_000, rate))
        outcome = binomial_rate_test(successes, 5_000, rate)
        assert _passes_gate(outcome, tolerance=0.06)


# ----------------------------------------------------------------------
# Property: perturbed samples fail (the gate has power)
# ----------------------------------------------------------------------


def _shift_mix(probs, amount=0.10):
    """Move ``amount`` of mass from the largest to the smallest bin."""
    shifted = list(probs)
    hi = max(range(len(shifted)), key=lambda i: shifted[i])
    lo = min(
        (i for i in range(len(shifted)) if i != hi),
        key=lambda i: shifted[i],
    )
    shifted[hi] -= amount
    shifted[lo] += amount
    return shifted


class TestPerturbedSamplesFail:
    def test_ten_point_shift_rejected_at_every_registry_tolerance(self):
        """The acceptance claim, deterministically.

        A mix with one category shifted by exactly ten percentage
        points has total variation 0.10 from the target; in the
        no-noise limit (expected counts fed as observations) every
        non-scale-slack categorical tolerance in the registry must
        reject it.
        """
        tolerances = _registry_mix_tolerances()
        assert tolerances, "registry must expose plain categorical mixes"
        probs = [0.35, 0.30, 0.20, 0.15]
        shifted = _shift_mix(probs, 0.10)
        counts = {k: v * 60_000 for k, v in _mix(shifted).items()}
        outcome = chi_square_gof(counts, _mix(probs))
        assert abs(outcome.effect - 0.10) < 1e-9
        for name, tolerance in tolerances.items():
            assert tolerance < 0.10, name
            assert not _passes_gate(outcome, tolerance), name

    @given(
        probs=_mix_probs(min_k=3, max_k=6), seed=st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_sampled_ten_point_shift_fails(self, probs, seed):
        # Every bin keeps >= 0.12 mass so a 0.10 shift stays a valid
        # distribution.
        floor_probs = [max(p, 0.12) for p in probs]
        total = sum(floor_probs)
        probs = [p / total for p in floor_probs]
        shifted = _shift_mix(probs, 0.10)
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(20_000, shifted)
        outcome = chi_square_gof(_mix(counts), _mix(probs))
        # TVD concentrates at ~0.10 with sd ~0.004 at n=20k: tolerance
        # 0.08 rejects with overwhelming margin, and the chi-square
        # p-value is astronomically small, so the p branch cannot
        # rescue the verdict either.
        assert not _passes_gate(outcome, tolerance=0.08)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ks_shifted_distribution_fails(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=2_000)
        b = rng.normal(loc=0.5, size=2_000)
        outcome = ks_2samp(a, b)
        # Half-sd location shift: D ~ 0.20 >> 0.08.
        assert not _passes_gate(outcome, tolerance=0.08)

    @given(
        rate=st.floats(min_value=0.15, max_value=0.85),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_binomial_ten_point_rate_shift_fails(self, seed, rate):
        rng = np.random.default_rng(seed)
        successes = int(rng.binomial(5_000, rate + 0.10))
        outcome = binomial_rate_test(successes, 5_000, rate)
        assert not _passes_gate(outcome, tolerance=0.06)


# ----------------------------------------------------------------------
# Differential against scipy (the oracle CI doesn't have)
# ----------------------------------------------------------------------


@needs_scipy
class TestScipyDifferential:
    @pytest.mark.parametrize("df", [1, 2, 5, 10, 40])
    @pytest.mark.parametrize("statistic", [0.5, 2.0, 7.3, 25.0, 80.0])
    def test_chi2_sf(self, statistic, df):
        ours = chi2_sf(statistic, df)
        ref = float(scipy_stats.chi2.sf(statistic, df))
        assert ours == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.3, 0.8, 1.2, 1.63, 2.5])
    def test_kolmogorov_sf(self, lam):
        ours = kolmogorov_sf(lam)
        ref = float(scipy_special.kolmogorov(lam))
        assert ours == pytest.approx(ref, abs=1e-10)

    def test_chi_square_gof_matches_chisquare(self):
        observed = {"a": 500, "b": 300, "c": 220}
        probs = {"a": 0.5, "b": 0.3, "c": 0.2}
        ours = chi_square_gof(observed, probs)
        total = sum(observed.values())
        ref = scipy_stats.chisquare(
            [500, 300, 220], [total * p for p in (0.5, 0.3, 0.2)]
        )
        assert ours.statistic == pytest.approx(float(ref.statistic))
        assert ours.p_value == pytest.approx(float(ref.pvalue), abs=1e-9)

    def test_ks_2samp_close_to_scipy_asymp(self):
        rng = np.random.default_rng(99)
        a = rng.normal(size=800)
        b = rng.normal(loc=0.1, size=900)
        ours = ks_2samp(a, b)
        ref = scipy_stats.ks_2samp(a, b, method="asymp")
        assert ours.statistic == pytest.approx(float(ref.statistic))
        # scipy's asymptotic path omits Stephens' small-sample
        # correction, so p-values agree only approximately.
        assert ours.p_value == pytest.approx(float(ref.pvalue), abs=0.05)

    def test_normal_sf_via_binomial_z(self):
        outcome = binomial_rate_test(560, 1_000, 0.5)
        corrected = (abs(0.56 - 0.5) - 0.5 / 1_000) / math.sqrt(
            0.25 / 1_000
        )
        ref = 2.0 * float(scipy_stats.norm.sf(corrected))
        assert outcome.p_value == pytest.approx(ref, abs=1e-12)


# ----------------------------------------------------------------------
# Unit edge cases
# ----------------------------------------------------------------------


class TestChiSquareEdges:
    def test_sparse_bins_are_pooled(self):
        observed = {"a": 50, "b": 45, "c": 3, "d": 2}
        probs = {"a": 0.50, "b": 0.45, "c": 0.03, "d": 0.02}
        outcome = chi_square_gof(observed, probs)
        # c and d (expected 3 and 2) pool into one bin: 4 categories
        # become 3 bins -> df 2.
        assert outcome.df == 2
        assert outcome.p_value > 0.5

    def test_everything_pooled_reports_effect_only(self):
        outcome = chi_square_gof({"a": 2, "b": 1}, {"a": 0.6, "b": 0.4})
        assert outcome.df == 0
        assert outcome.p_value == 1.0
        assert outcome.effect > 0.0

    def test_unexpected_category_counts_against(self):
        # A category absent from the target mix is pooled against
        # near-zero expectation rather than silently dropped: both the
        # statistic and the TVD effect must register its mass.
        observed = {"a": 500, "b": 380, "rogue": 120}
        probs = {"a": 0.5, "b": 0.5}
        outcome = chi_square_gof(observed, probs)
        assert outcome.p_value < 0.01
        assert outcome.effect == pytest.approx(0.12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chi_square_gof({}, {"a": 1.0})
        with pytest.raises(ValueError):
            total_variation({"a": 0.0}, {"a": 1.0})

    def test_total_variation_of_shift(self):
        base = {"a": 0.6, "b": 0.4}
        moved = {"a": 0.5, "b": 0.5}
        assert total_variation(moved, base) == pytest.approx(0.10)


class TestKSEdges:
    def test_identical_samples(self):
        outcome = ks_2samp([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert outcome.statistic == 0.0
        assert outcome.p_value == 1.0

    def test_disjoint_samples(self):
        outcome = ks_2samp([0.0] * 50, [1.0] * 50)
        assert outcome.statistic == 1.0
        assert outcome.p_value < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_2samp([], [1.0])


class TestBinomialEdges:
    def test_exact_match(self):
        outcome = binomial_rate_test(500, 1_000, 0.5)
        assert outcome.effect == 0.0
        assert outcome.p_value == 1.0

    def test_degenerate_expected_rates(self):
        assert binomial_rate_test(0, 100, 0.0).p_value == 1.0
        assert binomial_rate_test(1, 100, 0.0).p_value == 0.0
        assert binomial_rate_test(100, 100, 1.0).p_value == 1.0

    def test_wilson_contains_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.30 < high
        assert 0.0 <= low < high <= 1.0

    def test_wilson_validates(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

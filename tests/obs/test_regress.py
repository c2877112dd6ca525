"""Tests for the bench trajectory and perf-regression gate."""

import json
import os

import pytest

from repro import cli
from repro.obs import regress
from repro.obs.regress import BenchResult, GateViolation


def _fake_bench(scale):
    """A deterministic, instant bench for gate tests."""
    return BenchResult(
        name="fake",
        wall_seconds=0.1,
        peak_rss_kb=0.0,
        peak_rss_source="",
        throughput=1000.0,
        throughput_units="ops/s",
        params={"scale": scale},
    )


#: Tolerances that gate wall time only -- per-bench peak RSS is a real
#: process reading and would make same-process comparisons flaky.
WALL_ONLY = {"wall_seconds": 0.20}


class TestRunBenches:
    def test_unknown_bench_rejected(self):
        with pytest.raises(KeyError):
            regress.run_benches(["nope"])

    def test_fake_bench_gets_rss_accounted(self, monkeypatch):
        monkeypatch.setitem(regress.BENCHES, "fake", _fake_bench)
        (result,) = regress.run_benches(["fake"], scale=0.5)
        assert result.peak_rss_kb > 0
        assert result.peak_rss_source in ("vmhwm", "rss")

    def test_handicap_inflates_wall_time(self, monkeypatch):
        monkeypatch.setitem(regress.BENCHES, "fake", _fake_bench)
        monkeypatch.setenv("REPRO_BENCH_HANDICAP", "0.25")
        (result,) = regress.run_benches(["fake"], scale=0.5)
        assert result.wall_seconds == pytest.approx(0.125)
        assert result.throughput == pytest.approx(800.0)
        assert result.extra["handicap"] == 0.25


class TestTrajectory:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "traj.json"
        assert regress.load_trajectory(path) == []
        entry = regress.entry_from_result(_fake_bench(0.5))
        regress.append_entries(path, [entry])
        regress.append_entries(path, [entry])
        loaded = regress.load_trajectory(path)
        assert len(loaded) == 2
        assert loaded[0]["bench"] == "fake"
        assert loaded[0]["cpu_count"] == os.cpu_count()
        assert loaded[0]["schema_version"] == regress.SCHEMA_VERSION
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema_version"] == regress.SCHEMA_VERSION

    def test_match_key_separates_params_and_schema(self):
        a = regress.entry_from_result(_fake_bench(0.5))
        b = regress.entry_from_result(_fake_bench(0.01))
        c = dict(a, schema_version=regress.SCHEMA_VERSION + 1)
        assert regress.match_key(a) == regress.match_key(dict(a))
        assert regress.match_key(a) != regress.match_key(b)
        assert regress.match_key(a) != regress.match_key(c)
        # The host is recorded, but does not (yet) separate entries.
        d = dict(a, cpu_count=(a["cpu_count"] or 1) + 1)
        assert regress.match_key(a) == regress.match_key(d)


class TestGate:
    def _entry(self, wall, scale=0.5):
        result = _fake_bench(scale)
        result.wall_seconds = wall
        return regress.entry_from_result(result)

    def test_no_history_passes(self):
        assert regress.check_entry([], self._entry(9.9), WALL_ONLY) == []

    def test_within_tolerance_passes(self):
        history = [self._entry(0.1), self._entry(0.11), self._entry(0.09)]
        assert regress.check_entry(history, self._entry(0.118),
                                   WALL_ONLY) == []

    def test_25_percent_slowdown_trips_20_percent_gate(self):
        history = [self._entry(0.1)]
        violations = regress.check_entry(history, self._entry(0.125),
                                         WALL_ONLY)
        assert [v.metric for v in violations] == ["wall_seconds"]
        assert violations[0].ratio == pytest.approx(1.25)
        assert "+25.0%" in violations[0].render()

    def test_baseline_is_median_not_mean(self):
        # One pathological 10s outlier must not drag the baseline up.
        history = [self._entry(w) for w in (0.1, 0.1, 0.1, 0.1, 10.0)]
        assert regress.check_entry(history, self._entry(0.119), WALL_ONLY) \
            == []
        assert regress.check_entry(history, self._entry(0.125), WALL_ONLY)

    def test_different_params_never_compare(self):
        history = [self._entry(0.1, scale=0.01)]
        assert regress.check_entry(history, self._entry(9.0, scale=0.5),
                                   WALL_ONLY) == []

    def test_tolerance_override_loosens_gate(self):
        history = [self._entry(0.1)]
        assert regress.check_entry(
            history, self._entry(0.125), {"wall_seconds": 0.30}
        ) == []

    def test_parse_tolerances(self):
        merged = regress.parse_tolerances(["wall_seconds=0.35"])
        assert merged["wall_seconds"] == 0.35
        assert merged["peak_rss_kb"] == \
            regress.DEFAULT_TOLERANCES["peak_rss_kb"]
        with pytest.raises(ValueError):
            regress.parse_tolerances(["nonsense=0.1"])
        with pytest.raises(ValueError):
            regress.parse_tolerances(["wall_seconds"])


class TestBenchCli:
    """`repro bench` end to end, on the instant fake bench."""

    def _run(self, tmp_path, *extra):
        return cli.main([
            "bench", "--bench", "fake", "--scale", "0.5",
            "--trajectory", str(tmp_path / "traj.json"),
            # Gate wall time only: per-bench peak RSS is a live process
            # reading and would be flaky to compare within one test run.
            "--tolerance", "peak_rss_kb=1000",
            *extra,
        ])

    def test_check_passes_then_fails_on_synthetic_slowdown(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setitem(regress.BENCHES, "fake", _fake_bench)
        assert self._run(tmp_path) == 0  # seeds the trajectory
        assert self._run(tmp_path, "--check") == 0  # clean run passes

        # A 25% synthetic slowdown must trip the >20% wall-time gate.
        monkeypatch.setenv("REPRO_BENCH_HANDICAP", "0.25")
        assert self._run(tmp_path, "--check", "--no-append") == 1
        err = capsys.readouterr().err
        assert "regression gate: FAIL" in err
        assert "wall_seconds" in err

    def test_no_append_leaves_trajectory_untouched(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(regress.BENCHES, "fake", _fake_bench)
        assert self._run(tmp_path, "--no-append") == 0
        assert not (tmp_path / "traj.json").exists()

    def test_unknown_bench_is_usage_error(self, tmp_path):
        assert cli.main([
            "bench", "--bench", "nope",
            "--trajectory", str(tmp_path / "traj.json"),
        ]) == 2

    def test_bad_tolerance_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setitem(regress.BENCHES, "fake", _fake_bench)
        assert self._run(tmp_path, "--tolerance", "bogus=1") == 2


class TestGateViolation:
    def test_render_and_ratio(self):
        violation = GateViolation(
            bench="b", metric="wall_seconds",
            observed=0.3, baseline=0.2, tolerance=0.2,
        )
        assert violation.ratio == pytest.approx(1.5)
        text = violation.render()
        assert "b: wall_seconds" in text
        assert "+50.0%" in text

    def test_zero_baseline_ratio_is_inf(self):
        violation = GateViolation(
            bench="b", metric="wall_seconds",
            observed=0.3, baseline=0.0, tolerance=0.2,
        )
        assert violation.ratio == float("inf")

"""Seed-sweep runner, CLI surface, and the opt-in full fidelity gate.

The tier-1 sweeps here use the small world's config (scale 0.005,
seed 11); a sweep builds each seed's world uncached, so every sweep
regenerates it.  The full acceptance sweep -- three seeds at scale 0.02
-- is marked ``fidelity`` and deselected by default; run it with
``pytest -m fidelity``.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.cli import main
from repro.obs import metrics as obs_metrics
from repro.pipeline import validate_session
from repro.synth.world import WorldConfig
from repro.validation import load_report, run_seed_sweep, sweep_configs
from repro.validation.report import SCHEMA

SMALL = dict(scale=0.005, seeds=1, base_seed=11)


class TestSweepConfigs:
    def test_consecutive_seeds(self):
        configs = sweep_configs(scale=0.02, seeds=3, base_seed=7)
        assert [c.seed for c in configs] == [7, 8, 9]
        assert {c.scale for c in configs} == {0.02}
        assert configs[0] == WorldConfig(seed=7, scale=0.02)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            sweep_configs(scale=0.02, seeds=0)


class TestSmallSweep:
    def test_report_structure(self, small_session):
        report = run_seed_sweep(**SMALL)
        assert report.seeds == [11]
        assert report.config["scale"] == 0.005
        assert report.generator_version
        assert report.passed
        payload = report.to_dict()
        assert payload["schema"] == SCHEMA
        assert len(payload["targets"]) >= 10
        for target in payload["targets"]:
            assert target["verdict"] in {"pass", "fail", "skipped"}
            assert set(target) >= {
                "name", "statistic", "p_value", "effect", "verdict",
                "tolerance", "per_seed",
            }

    def test_sweep_metrics_and_gauge(self, small_session):
        registry = obs_metrics.get_registry()
        before = registry.snapshot()["counters"].get("fidelity.sweeps", 0)
        report = run_seed_sweep(**SMALL)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["fidelity.sweeps"] == before + 1
        counts = report.counts()
        evaluated = counts["pass"] + counts["fail"]
        assert snapshot["gauges"]["fidelity.pass_fraction"] == (
            pytest.approx(counts["pass"] / evaluated)
        )

    def test_rerun_gives_identical_report(self):
        # Every sweep regenerates its worlds, so two sweeps compare two
        # independent builds: the report is a pure function of (scale,
        # seeds, sigma, shards).
        assert run_seed_sweep(**SMALL).to_dict() == (
            run_seed_sweep(**SMALL).to_dict()
        )

    @pytest.mark.parametrize("kwargs, message", [
        (dict(p_floor=-1.0), "p_floor must be in"),
        (dict(p_floor=0.0), "p_floor must be in"),
        (dict(p_floor=1.5), "p_floor must be in"),
        (dict(quantile=-0.5), "quantile must be in"),
        (dict(quantile=1.5), "quantile must be in"),
    ], ids=["p-floor-negative", "p-floor-zero", "p-floor-above-one",
            "quantile-negative", "quantile-above-one"])
    def test_out_of_range_values_rejected_before_any_world(
        self, monkeypatch, kwargs, message
    ):
        from repro import pipeline

        def no_build(*args, **kwargs):
            raise AssertionError("a world was built")

        monkeypatch.setattr(pipeline, "build_session", no_build)
        with pytest.raises(ValueError, match=message):
            run_seed_sweep(**SMALL, **kwargs)


class TestSweepMemory:
    """A sweep holds one seed's session at a time and keeps none."""

    def test_no_seed_session_outlives_its_seed(self, monkeypatch):
        from repro import pipeline

        built = []
        real_build = pipeline.build_session

        def recording_build(config, **kwargs):
            # Every earlier seed's session must be garbage by the time
            # the next one is built.
            gc.collect()
            assert all(ref() is None for ref in built)
            session = real_build(config, **kwargs)
            built.extend([weakref.ref(session), weakref.ref(session.world)])
            return session

        monkeypatch.setattr(pipeline, "build_session", recording_build)
        run_seed_sweep(scale=0.002, seeds=2, base_seed=31, shards=2)
        gc.collect()
        assert len(built) == 4
        assert all(ref() is None for ref in built)
        configs = sweep_configs(scale=0.002, seeds=2, base_seed=31, shards=2)
        memoized = {session.config for session in pipeline._SESSIONS.values()}
        assert not memoized & set(configs)


class TestPipelineHook:
    def test_validate_session_matches_evaluate(
        self, small_session, small_validation_results
    ):
        results = validate_session(small_session)
        assert [r.as_dict() for r in results] == [
            r.as_dict() for r in small_validation_results
        ]


class TestValidateCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["validate"])
        assert args.seeds == 3
        assert args.p_floor == 0.01
        assert args.quantile == 0.5
        assert args.report_out is None

    def test_writes_report_and_manifest(
        self, small_session, tmp_path, capsys
    ):
        report_path = tmp_path / "fidelity_report.json"
        metrics_path = tmp_path / "metrics.json"
        status = main(
            [
                "validate",
                "--scale", "0.005", "--seed", "11", "--seeds", "1",
                "--report-out", str(report_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out
        report = load_report(report_path)
        assert report.passed
        assert len(report.targets) >= 10
        manifest = json.loads(
            (tmp_path / "metrics.manifest.json").read_text()
        )
        assert manifest["command"] == "validate"
        assert manifest["config"]["scale"] == 0.005


@pytest.mark.fidelity
class TestFullGate:
    """The acceptance sweep: ``repro validate --scale 0.02 --seeds 3``.

    Generates three worlds at scale 0.02 (~minutes); opt in with
    ``pytest -m fidelity``.
    """

    def test_acceptance_sweep_passes(self):
        report = run_seed_sweep(scale=0.02, seeds=3, base_seed=7)
        assert report.passed, report.render()
        counts = report.counts()
        assert counts["pass"] >= 10
        assert counts["fail"] == 0

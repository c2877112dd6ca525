"""Tests for run manifests."""

import dataclasses
import json
import re
import shutil
import subprocess

import pytest

from repro.obs import trace
from repro.obs.manifest import build_manifest, git_revision, load_manifest
from repro.obs.metrics import MetricsRegistry
from repro.synth.cache import config_digest
from repro.synth.world import WorldConfig


class TestBuild:
    def test_captures_config_and_digest(self):
        config = WorldConfig(seed=5, scale=0.003)
        manifest = build_manifest("run", config=config, wall_seconds=1.5)
        assert manifest.command == "run"
        assert manifest.wall_seconds == 1.5
        assert manifest.config == dataclasses.asdict(config)
        assert manifest.config_digest == config_digest(config)
        assert manifest.versions.get("python")

    def test_without_config(self):
        manifest = build_manifest("avtype")
        assert manifest.config == {}
        assert manifest.config_digest is None

    def test_embeds_metrics_and_spans(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3)
        tracer = trace.Tracer(enabled=True)
        with tracer.span("pipeline.build_session"):
            pass
        manifest = build_manifest(
            "run", registry=registry, tracer=tracer
        )
        assert manifest.metrics["counters"]["cache.hits"] == 3
        assert manifest.spans[0]["name"] == "pipeline.build_session"


class TestRoundTrip:
    def test_write_then_load_is_lossless(self, tmp_path):
        config = WorldConfig(seed=5, scale=0.003)
        registry = MetricsRegistry()
        registry.counter("world.events_generated").inc(123)
        manifest = build_manifest(
            "run", config=config, wall_seconds=2.25,
            registry=registry,
        )
        path = manifest.write(tmp_path / "out" / "metrics.manifest.json")
        assert path.is_file()
        loaded = load_manifest(path)
        assert loaded == manifest

    def test_written_file_is_plain_json(self, tmp_path):
        manifest = build_manifest("run", config=WorldConfig(seed=1,
                                                            scale=0.001))
        path = manifest.write(tmp_path / "m.json")
        payload = json.loads(path.read_text())
        assert payload["command"] == "run"
        assert payload["config"]["seed"] == 1

    def test_from_dict_ignores_extra_keys(self):
        manifest = build_manifest("run")
        payload = manifest.to_dict()
        payload["future_field"] = "ignored"
        assert type(manifest).from_dict(payload) == manifest


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestGitRevision:
    """``git_revision`` marks a checkout whose ``src/`` has local edits."""

    @pytest.fixture
    def checkout(self, tmp_path):
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t",
                 "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "code.py").write_text("x = 1\n")
        (tmp_path / "out.txt").write_text("table\n")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "init")
        return tmp_path

    def test_clean_checkout_is_the_bare_sha(self, checkout):
        assert re.fullmatch(r"[0-9a-f]{40}", git_revision(checkout))

    def test_edited_tracked_source_is_dirty(self, checkout):
        clean = git_revision(checkout)
        (checkout / "src" / "code.py").write_text("x = 2\n")
        assert git_revision(checkout) == clean + "-dirty"
        # Also from a subdirectory of the checkout.
        assert git_revision(checkout / "src") == clean + "-dirty"

    def test_outputs_and_untracked_files_stay_clean(self, checkout):
        clean = git_revision(checkout)
        (checkout / "out.txt").write_text("regenerated\n")
        (checkout / "src" / "new.py").write_text("y = 1\n")
        (checkout / "notes.txt").write_text("scratch\n")
        assert git_revision(checkout) == clean

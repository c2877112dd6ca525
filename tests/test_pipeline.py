"""Tests for the one-call session pipeline."""

import pytest

from repro import Session, WorldConfig, build_session
from repro.labeling.whitelists import AlexaService
from repro.telemetry.store import load_dataset, save_dataset


class TestBuildSession:
    def test_components_wired(self, small_session):
        assert isinstance(small_session, Session)
        assert small_session.dataset is small_session.labeled.dataset
        assert isinstance(small_session.alexa, AlexaService)
        assert small_session.world.filter_stats is not None

    def test_default_config(self):
        session = build_session(WorldConfig(seed=1, scale=0.001))
        assert session.config.seed == 1
        assert len(session.dataset.events) > 100

    def test_labeler_consistent_with_labeled(self, small_session):
        # Re-querying the labeler for an already-labeled hash agrees.
        some = list(small_session.labeled.file_labels.items())[:50]
        for sha, label in some:
            assert small_session.labeler.label_hash(sha) == label

    def test_alexa_covers_ranked_world_domains(self, small_session):
        ranked = [
            d for d in small_session.world.corpus.domains
            if d.alexa_rank is not None
        ]
        for domain in ranked[:100]:
            assert small_session.alexa.rank(domain.name) == domain.alexa_rank

    def test_sessions_reproducible(self):
        first = build_session(WorldConfig(seed=9, scale=0.001))
        second = build_session(WorldConfig(seed=9, scale=0.001))
        assert first.labeled.label_counts() == second.labeled.label_counts()
        assert len(first.dataset.events) == len(second.dataset.events)

    def test_session_cache_returns_same_object(self):
        config = WorldConfig(seed=9, scale=0.001)
        assert build_session(config) is build_session(config)

    def test_cache_does_not_change_dataset(self):
        config = WorldConfig(seed=9, scale=0.001)
        cached = build_session(config)
        fresh = build_session(config, cache=False)
        assert fresh is not cached
        assert (
            cached.dataset.content_digest() == fresh.dataset.content_digest()
        )


class TestExportImport:
    def test_export_import_round_trip(self, small_session, tmp_path):
        save_dataset(small_session.dataset, tmp_path / "store", compress=True)
        imported = load_dataset(tmp_path / "store")
        assert imported.content_digest() == (
            small_session.dataset.content_digest()
        )

    def test_build_session_from_store(self, small_session, tmp_path):
        save_dataset(small_session.dataset, tmp_path / "store")
        # Prime the memo first: other tests may have cleared the global
        # session cache, so identity vs small_session itself is not
        # guaranteed here — only memo behaviour around the import is.
        baseline = build_session(small_session.config)
        session = build_session(
            small_session.config, dataset_dir=tmp_path / "store"
        )
        assert session.dataset.content_digest() == (
            small_session.dataset.content_digest()
        )
        assert session.labeled.label_counts() == (
            small_session.labeled.label_counts()
        )
        # Imported sessions bypass the memo: the store's content is not
        # part of the config digest, so caching them would be unsound.
        assert session is not baseline
        assert build_session(small_session.config) is baseline

    def test_build_session_from_corrupt_store_fails(self, small_session,
                                                    tmp_path):
        save_dataset(small_session.dataset, tmp_path / "store")
        events = tmp_path / "store" / "events-00000.jsonl"
        lines = events.read_text(encoding="utf-8").splitlines()
        events.write_text("\n".join(lines[:-10]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="events-00000.jsonl"):
            build_session(small_session.config, dataset_dir=tmp_path / "store")


class TestEntryPaths:
    def test_report_text_identical_across_entry_paths(self, small_session,
                                                       tmp_path):
        """In-memory, imported-store and streamed-store sessions render
        the same text for every ``report`` experiment and for Tables
        XVI/XVII."""
        from repro.analysis.frame import clear_frame_cache
        from repro.cli import _EXPERIMENTS, _render
        from repro.core.evaluation import clear_rule_cache, full_evaluation
        from repro.obs import metrics as obs_metrics
        from repro.pipeline import stream_session
        from repro.reporting import render_table_xvi, render_table_xvii

        config = small_session.config
        save_dataset(small_session.dataset, tmp_path / "export")
        assert stream_session(config, tmp_path / "streamed").digest_match
        sessions = [
            small_session,
            build_session(config, dataset_dir=tmp_path / "export"),
            build_session(config, dataset_dir=tmp_path / "streamed"),
        ]
        builds = obs_metrics.counter("analysis.frame_build")
        before = builds.value
        rule_hits = obs_metrics.counter("rules.cache_hits")
        hits_before = rule_hits.value
        texts = []
        tables = []
        for session in sessions:
            # The frame and rule memos are keyed by the labeled digest,
            # which all three share: without the clears, one frame and
            # one set of PART fits would serve all three.
            clear_frame_cache()
            texts.append(
                "\n\n".join(_render(session, name) for name in _EXPERIMENTS)
            )
            clear_rule_cache()
            evaluation = full_evaluation(session.labeled, session.alexa)
            tables.append(
                render_table_xvi(evaluation) + "\n"
                + render_table_xvii(evaluation)
            )
        assert builds.value == before + 3
        assert rule_hits.value == hits_before
        assert len(_EXPERIMENTS) == 23
        assert texts[1] == texts[0]
        assert texts[2] == texts[0]
        assert tables[1] == tables[0]
        assert tables[2] == tables[0]

"""End-to-end checks that the pipeline instrumentation works -- and,
critically, that it never changes what the pipeline produces."""

from repro import WorldConfig, build_session, clear_all_caches
from repro.core.classifier import ConflictPolicy, RuleBasedClassifier
from repro.core.dataset import BENIGN_CLASS, MALICIOUS_CLASS, Instance
from repro.core.evaluation import learn_rules
from repro.core.rules import Rule, RuleSet
from repro.obs import metrics, trace
from repro.synth.cache import get_world


class TestDeterminismGuard:
    def test_tracing_does_not_perturb_content_digest(self):
        """Instrumentation reads clocks, never RNG state: a traced run
        must produce the bit-identical dataset."""
        config = WorldConfig(seed=23, scale=0.001)
        baseline = build_session(config, cache=False)
        trace.enable()
        try:
            traced = build_session(config, cache=False)
        finally:
            trace.disable()
        assert (
            traced.dataset.content_digest()
            == baseline.dataset.content_digest()
        )


class TestSpanCoverage:
    def test_span_tree_covers_every_stage(self):
        config = WorldConfig(seed=24, scale=0.001)
        trace.enable()
        session = build_session(config, cache=False)
        learn_rules(session.labeled, session.alexa, 0)
        trace.disable()
        names = {
            span.name
            for root in trace.finished_spans()
            for span in root.iter()
        }
        assert {
            "pipeline.build_session",
            "pipeline.generate",
            "synth.generate_world",
            "synth.build_context",
            "synth.merge_shards",
            "pipeline.collect",
            "telemetry.collect",
            "pipeline.label",
            "labeling.label_dataset",
            "core.learn_rules",
            "core.part_fit",
        } <= names

    def test_session_cache_hit_short_circuits_tree(self):
        config = WorldConfig(seed=24, scale=0.001)
        build_session(config)  # prime the memo
        trace.enable()
        build_session(config)
        trace.disable()
        root = trace.finished_spans()[-1]
        assert root.attributes.get("session_cache") == "hit"
        assert root.children == []


class TestStageCounters:
    def test_counters_match_session_contents(self):
        config = WorldConfig(seed=25, scale=0.001)
        registry = metrics.get_registry()
        registry.reset()
        session = build_session(config, cache=False)
        snap = registry.snapshot()["counters"]
        assert snap["world.events_generated"] == len(
            session.world.corpus.events
        )
        assert snap["collector.events_observed"] == len(
            session.world.corpus.events
        )
        assert snap["collector.events_reported"] == len(
            session.dataset.events
        )
        assert snap["labeler.files_labeled"] == len(
            session.labeled.file_labels
        )
        assert snap["pipeline.sessions_built"] == 1

    def test_rules_learned_counter(self):
        config = WorldConfig(seed=25, scale=0.001)
        session = build_session(config)
        registry = metrics.get_registry()
        registry.reset()
        rules, _ = learn_rules(session.labeled, session.alexa, 0)
        assert (
            registry.counter("rules.learned").value == len(rules) > 0
        )

    def test_conflict_rejections_counted(self):
        benign = Rule((), BENIGN_CLASS, coverage=1, errors=0)
        malicious = Rule((), MALICIOUS_CLASS, coverage=1, errors=0)
        classifier = RuleBasedClassifier(
            RuleSet([benign, malicious]), ConflictPolicy.REJECT
        )
        registry = metrics.get_registry()
        registry.reset()
        result = classifier.evaluate(
            [Instance(values=(), label=BENIGN_CLASS)]
        )
        assert result.rejected == 1
        assert (
            registry.counter("classifier.conflicts_rejected").value == 1
        )
        assert registry.counter("classifier.decisions").value == 1


class TestCacheCounters:
    def test_world_cache_hit_and_miss_counters(self):
        config = WorldConfig(seed=26, scale=0.001)
        clear_all_caches()
        registry = metrics.get_registry()
        registry.reset()
        get_world(config)
        assert registry.counter("cache.misses").value == 1
        get_world(config)
        assert registry.counter("cache.hits").value == 1
        assert registry.counter("cache.memory_hits").value == 1
        get_world(config, cache=False)
        assert registry.counter("cache.bypasses").value == 1

    def test_corrupt_disk_entry_counted(self, tmp_path, monkeypatch):
        from repro.synth import cache as world_cache

        config = WorldConfig(seed=28, scale=0.001)
        monkeypatch.setenv(world_cache.CACHE_DIR_ENV, str(tmp_path))
        clear_all_caches()
        registry = metrics.get_registry()
        registry.reset()
        digest = world_cache.config_digest(config)
        name = f"world-{digest}-{world_cache.WORLD_LAYOUT}.pkl"
        (tmp_path / name).write_bytes(b"not a pickle")
        get_world(config)
        assert registry.counter("cache.corrupt").value == 1
        # The corrupt entry degraded to a miss and was regenerated.
        assert registry.counter("cache.misses").value == 1
        assert registry.counter("cache.disk_stores").value == 1


class TestClearAllCaches:
    def test_clears_both_layers_and_counts(self):
        config = WorldConfig(seed=27, scale=0.001)
        session = build_session(config)
        assert build_session(config) is session
        registry = metrics.get_registry()
        registry.reset()
        clear_all_caches()
        assert registry.counter("cache.session_clears").value == 1
        assert registry.counter("cache.world_clears").value == 1
        # Both the session memo and the world cache were dropped: the
        # rebuilt session is a genuinely new object wrapping a newly
        # generated world (clear_session_cache alone would have reused
        # the cached world).
        rebuilt = build_session(config)
        assert rebuilt is not session
        assert rebuilt.world is not session.world

"""Tests for the sharded generation engine and the world cache.

The contract under test: the filtered :class:`TelemetryDataset` (and the
raw corpus beneath it) is a pure function of ``(seed, scale, shards)`` --
identical across repeat runs and across cache-hit vs cache-miss paths.
"""

from __future__ import annotations

import pickle

import pytest

from repro.obs import metrics as obs_metrics
from repro.synth import cache as world_cache
from repro.synth.cache import clear_world_cache, config_digest, get_world
from repro.synth.engine import (
    build_context,
    generate_world,
    merge_shards,
    plan_shards,
    simulate_shard,
)
from repro.synth.world import World, WorldConfig

_CONFIG = WorldConfig(seed=13, scale=0.002)


def _dataset_digest(world: World) -> str:
    return world.collect().content_digest()


class TestShardPlan:
    def test_covers_all_machines_contiguously(self):
        plan = plan_shards(1003, 8)
        assert plan[0][0] == 0
        assert plan[-1][1] == 1003
        for (_, prev_stop), (start, _) in zip(plan, plan[1:]):
            assert prev_stop == start

    def test_balanced_within_one(self):
        sizes = [stop - start for start, stop in plan_shards(1003, 8)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_machines(self):
        plan = plan_shards(3, 8)
        assert sum(stop - start for start, stop in plan) == 3

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            plan_shards(100, 0)


class TestWorldJobsKeyword:
    """``World`` keeps ``jobs`` as a keyword that accepts only 1."""

    def test_other_values_rejected(self):
        with pytest.raises(ValueError, match="jobs must be 1"):
            World(_CONFIG, jobs=2)


class TestShardedDeterminism:
    def test_two_runs_identical(self):
        first = _dataset_digest(World(_CONFIG))
        second = _dataset_digest(World(_CONFIG))
        assert first == second

    def test_shards_are_part_of_world_identity(self):
        base = _dataset_digest(World(_CONFIG))
        other = _dataset_digest(
            World(WorldConfig(seed=13, scale=0.002, shards=3))
        )
        assert base != other

    def test_shard_outputs_are_disjoint(self):
        context = build_context(_CONFIG)
        results = [
            simulate_shard(context, _CONFIG, index)
            for index in range(_CONFIG.shards)
        ]
        seen = set()
        for result in results:
            assert not (seen & result.files.keys())
            seen |= result.files.keys()
        corpus = merge_shards(context, _CONFIG, results)
        assert len(corpus.files) == len(seen)

    def test_merged_events_sorted(self):
        _, corpus = generate_world(_CONFIG)
        timestamps = [event.timestamp for event in corpus.events]
        assert timestamps == sorted(timestamps)

    def test_merge_requires_all_shards(self):
        context = build_context(_CONFIG)
        results = [simulate_shard(context, _CONFIG, 0)]
        with pytest.raises(ValueError):
            merge_shards(context, _CONFIG, results)


class TestConfigDigest:
    def test_stable(self):
        assert config_digest(_CONFIG) == config_digest(_CONFIG)

    def test_sensitive_to_every_knob(self):
        base = config_digest(_CONFIG)
        assert config_digest(WorldConfig(seed=14, scale=0.002)) != base
        assert config_digest(WorldConfig(seed=13, scale=0.003)) != base
        assert (
            config_digest(WorldConfig(seed=13, scale=0.002, shards=5)) != base
        )

    def test_salted_by_generator_version(self, monkeypatch):
        base = config_digest(_CONFIG)
        monkeypatch.setattr(world_cache, "GENERATOR_VERSION", "other")
        assert config_digest(_CONFIG) != base


class TestValidatorInputEquivalence:
    """The fidelity validator must be blind to how a world was obtained.

    Extends the ``content_digest`` equivalence guard to the report
    output: for one config, the per-target fidelity results are
    byte-identical whether the world came from the session-cache hit or
    a fresh rebuild.  Shard
    count is deliberately *not* in this list -- shards are part of the
    world's identity (digests differ, see
    ``test_shards_are_part_of_world_identity``), so the validator sees
    different worlds; what must hold across shard counts is that the
    validator measures the same registry of targets in the same order.
    """

    @staticmethod
    def _report(config, **kwargs):
        from repro.pipeline import build_session
        from repro.validation import evaluate_session

        session = build_session(config, **kwargs)
        return [result.as_dict() for result in evaluate_session(session)]

    def test_cache_paths_feed_validator_identically(self):
        fresh = self._report(_CONFIG, cache=False)
        memoized = self._report(_CONFIG)  # session/world cache path
        assert fresh == memoized

    def test_shard_counts_cover_the_same_targets(self):
        single = self._report(WorldConfig(seed=13, scale=0.002, shards=1))
        sharded = self._report(WorldConfig(seed=13, scale=0.002, shards=4))
        assert [r["name"] for r in single] == [r["name"] for r in sharded]
        assert [r["tolerance"] for r in single] == [
            r["tolerance"] for r in sharded
        ]


class TestWorldCache:
    def test_memory_hit_returns_same_world(self):
        clear_world_cache()
        first = get_world(_CONFIG)
        second = get_world(_CONFIG)
        assert first is second

    def test_cache_false_bypasses(self):
        clear_world_cache()
        first = get_world(_CONFIG)
        fresh = get_world(_CONFIG, cache=False)
        assert fresh is not first
        assert _dataset_digest(fresh) == _dataset_digest(first)

    def test_hit_and_miss_paths_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(world_cache.CACHE_DIR_ENV, str(tmp_path))
        clear_world_cache()
        cold = _dataset_digest(get_world(_CONFIG))          # miss -> store
        digest = config_digest(_CONFIG)
        assert [path.name for path in tmp_path.glob("world-*.pkl")] == [
            f"world-{digest}-{world_cache.WORLD_LAYOUT}.pkl"
        ]
        clear_world_cache()                                 # drop memory
        warm = _dataset_digest(get_world(_CONFIG))          # disk hit
        uncached = _dataset_digest(get_world(_CONFIG, cache=False))
        assert cold == warm == uncached
        clear_world_cache(disk=True)
        assert not list(tmp_path.glob("world-*.pkl"))

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv(world_cache.CACHE_DIR_ENV, str(tmp_path))
        clear_world_cache()
        digest = config_digest(_CONFIG)
        name = f"world-{digest}-{world_cache.WORLD_LAYOUT}.pkl"
        (tmp_path / name).write_bytes(b"not a pickle")
        world = get_world(_CONFIG)
        assert _dataset_digest(world) == _dataset_digest(
            get_world(_CONFIG, cache=False)
        )
        # Regeneration overwrote the corrupt entry under the same name.
        stored = pickle.loads((tmp_path / name).read_bytes())
        assert _dataset_digest(stored) == _dataset_digest(world)

    def test_entry_named_by_digest_alone_is_a_miss(self, tmp_path,
                                                  monkeypatch):
        # Disk entries named by the config digest alone predate the
        # layout tag; one written under another class layout would
        # unpickle into wrong field values without an error.
        monkeypatch.setenv(world_cache.CACHE_DIR_ENV, str(tmp_path))
        clear_world_cache()
        digest = config_digest(_CONFIG)
        (tmp_path / f"world-{digest}.pkl").write_bytes(
            pickle.dumps({"not": "a world"})
        )
        world = get_world(_CONFIG)
        assert isinstance(world, World)
        assert _dataset_digest(world) == _dataset_digest(
            get_world(_CONFIG, cache=False)
        )
        assert (
            tmp_path / f"world-{digest}-{world_cache.WORLD_LAYOUT}.pkl"
        ).is_file()

    @pytest.mark.parametrize("entry", ["foreign object", "other config"])
    def test_unusable_entry_is_counted_and_overwritten(
        self, tmp_path, monkeypatch, entry
    ):
        # Only a World of the requested config may be served: a foreign
        # object or another config's world at the entry path is counted
        # in cache.corrupt, regenerated and overwritten.
        monkeypatch.setenv(world_cache.CACHE_DIR_ENV, str(tmp_path))
        clear_world_cache()
        path = tmp_path / (
            f"world-{config_digest(_CONFIG)}-{world_cache.WORLD_LAYOUT}.pkl"
        )
        if entry == "foreign object":
            payload = {"not": "a world"}
        else:
            payload = get_world(
                WorldConfig(seed=14, scale=0.001), cache=False
            )
        path.write_bytes(pickle.dumps(payload))
        corrupt = obs_metrics.counter("cache.corrupt")
        before = corrupt.value
        world = get_world(_CONFIG)
        assert isinstance(world, World)
        assert world.config == _CONFIG
        assert corrupt.value == before + 1
        stored = pickle.loads(path.read_bytes())
        assert isinstance(stored, World)
        assert stored.config == _CONFIG

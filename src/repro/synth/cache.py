"""Content-addressed world cache.

Worlds are pure functions of their :class:`~repro.synth.world.WorldConfig`
(generation parallelism never changes the output), so they can be cached
by a digest of the config.  The digest also folds in a **code-version
salt**: bump :data:`GENERATOR_VERSION` whenever a change to the synthetic
generators intentionally alters the produced corpus, and every stale
entry -- in memory or on disk -- is invalidated at once.

Two layers:

* an in-process (session-level) memo, always on unless a caller passes
  ``cache=False`` -- this is what lets the test-suite conftest, the
  benchmark suite and repeated :func:`repro.pipeline.build_session` calls
  inside one interpreter share a single generated world;
* an optional on-disk pickle store for cross-process reuse, enabled by
  pointing the ``REPRO_WORLD_CACHE`` environment variable at a directory.

Both layers key on the same digest, so a cache hit is indistinguishable
from regeneration (verified by the determinism tests).  A disk entry's
name also carries :data:`WORLD_LAYOUT`, a tag of the row classes'
instance layout: a pickle written while those classes had another
layout (say, before they were slotted) would unpickle into wrong field
values without an error, so it must be a miss.  The layout is not part
of the config digest, which committed artifacts record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

from ..obs import metrics as obs_metrics
from ..telemetry.events import DownloadEvent, FileRecord, ProcessRecord
from .entities import (
    BenignProcess,
    SyntheticDomain,
    SyntheticFile,
    SyntheticMachine,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .world import World, WorldConfig

#: Salt mixed into every cache key.  Bump on any intentional change to
#: the generated corpus (new RNG layout, calibration change, ...).
GENERATOR_VERSION = "engine-v2"

#: Environment variable naming the on-disk cache directory.  Unset or
#: empty disables the disk layer (the in-memory layer still applies).
CACHE_DIR_ENV = "REPRO_WORLD_CACHE"

_MEMORY: Dict[str, "World"] = {}


def _layout_tag() -> str:
    """Short digest of the instance layout of the classes a world holds
    by the tens of thousands: their fields, and their slots if any."""
    layout = [
        (
            cls.__qualname__,
            tuple(field.name for field in dataclasses.fields(cls)),
            getattr(cls, "__slots__", None),
        )
        for cls in (
            DownloadEvent, FileRecord, ProcessRecord, SyntheticFile,
            SyntheticMachine, BenignProcess, SyntheticDomain,
        )
    ]
    return hashlib.sha256(repr(layout).encode("utf-8")).hexdigest()[:12]


#: Layout tag in every on-disk entry's name (see the module docstring).
WORLD_LAYOUT = _layout_tag()


def config_digest(config: "WorldConfig") -> str:
    """Stable content address of a world config (plus generator version)."""
    payload = dataclasses.asdict(config)
    payload["__generator__"] = GENERATOR_VERSION
    encoded = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def cache_dir() -> Optional[Path]:
    """The on-disk cache directory, or ``None`` when disabled."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    if not value:
        return None
    return Path(value).expanduser()


def _disk_path(digest: str) -> Optional[Path]:
    directory = cache_dir()
    if directory is None:
        return None
    return directory / f"world-{digest}-{WORLD_LAYOUT}.pkl"


def _disk_load(digest: str) -> Optional["World"]:
    path = _disk_path(digest)
    if path is None or not path.is_file():
        return None
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        # A truncated or stale entry is treated as a miss; regeneration
        # will overwrite it.
        obs_metrics.counter(
            "cache.corrupt", "Unreadable on-disk world-cache entries"
        ).inc()
        return None


def _disk_store(digest: str, world: "World") -> None:
    path = _disk_path(digest)
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename keeps concurrent readers from ever seeing a
        # partially written pickle.
        fd, temp_name = tempfile.mkstemp(
            prefix=path.name, suffix=".tmp", dir=path.parent
        )
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(world, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp_name, path)
        obs_metrics.counter(
            "cache.disk_stores", "Worlds written to the on-disk cache"
        ).inc()
    except OSError:
        # Caching is an optimization; a read-only or full disk must not
        # break generation.
        return


def get_world(
    config: "WorldConfig",
    jobs: Optional[int] = None,
    cache: bool = True,
) -> "World":
    """Return the world for ``config``, generating it on a cache miss.

    ``cache=False`` bypasses both layers -- no lookup, no store -- and
    always generates fresh (the escape hatch for benchmarks measuring
    cold generation and for callers that intend to mutate the world).
    """
    from .world import World  # runtime import: world imports engine/cache

    if not cache:
        obs_metrics.counter(
            "cache.bypasses", "get_world calls with caching disabled"
        ).inc()
        return World(config, jobs=jobs)
    digest = config_digest(config)
    world = _MEMORY.get(digest)
    if world is not None:
        obs_metrics.counter("cache.hits", "World-cache hits (any layer)").inc()
        obs_metrics.counter(
            "cache.memory_hits", "World-cache hits served from memory"
        ).inc()
        return world
    world = _disk_load(digest)
    if world is not None:
        obs_metrics.counter("cache.hits", "World-cache hits (any layer)").inc()
        obs_metrics.counter(
            "cache.disk_hits", "World-cache hits served from disk"
        ).inc()
    else:
        obs_metrics.counter(
            "cache.misses", "World-cache misses (world regenerated)"
        ).inc()
        world = World(config, jobs=jobs)
        _disk_store(digest, world)
    _MEMORY[digest] = world
    return world


def clear_world_cache(disk: bool = False) -> None:
    """Drop the in-memory layer (and optionally the on-disk entries)."""
    _MEMORY.clear()
    obs_metrics.counter(
        "cache.world_clears", "clear_world_cache invocations"
    ).inc()
    if disk:
        directory = cache_dir()
        if directory is None or not directory.is_dir():
            return
        for path in directory.glob("world-*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass

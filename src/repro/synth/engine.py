"""Sharded world generation with a deterministic merge.

The machine population is partitioned into ``config.shards`` contiguous
shards.  Every shard simulates independently -- its own
:class:`~numpy.random.SeedSequence`-derived RNG streams, its own
:class:`~repro.synth.names.NameFactory` (hash counters offset so minted
identifiers never collide across shards) and its own
:class:`~repro.synth.files.FilePool` -- against the *shared, read-only*
world ecosystems (signers, packers, domains, families, benign processes).

Shard outputs are merged deterministically: events via a timestamp-sorted
k-way merge (stable in shard order for ties), file tables and
spawned-process sets by disjoint union in shard order.  The resulting
:class:`~repro.synth.simulator.RawCorpus` is **bit-identical for a given
``(seed, scale, shards)`` triple**.

The shards run one after another in the calling process.  ``shards``
still fixes the partition and the RNG stream layout, so it is part of
every world's identity and config digest.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace
from ..telemetry.collector import merge_sorted_streams
from ..telemetry.events import DownloadEvent
from .behavior import MachineFactory, ProcessEcosystem
from .domains import DomainEcosystem
from .entities import SyntheticFile, SyntheticMachine
from .files import FamilyCatalog, FileFactory, FilePool
from .names import NameFactory
from .packers import PackerEcosystem
from .signers import SignerEcosystem
from .simulator import RawCorpus, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (world -> engine)
    from .world import WorldConfig

#: Number of root RNG streams consumed by the shared ecosystem context.
#: Kept at the original single-process layout (8 streams) so ecosystem
#: content is stable across the engine refactor; per-shard streams are
#: spawned *after* these indices.
_CONTEXT_STREAMS = 8

#: Stride partitioning the 64-bit NameFactory hash-counter space between
#: shards: shard ``i`` mints from ``(i + 1) * stride``; the shared context
#: factory mints ecosystem hashes from 0.
_SHARD_COUNTER_STRIDE = 2**40


@dataclasses.dataclass
class WorldContext:
    """The shared world state every shard reads (and never writes)."""

    names: NameFactory
    signers: SignerEcosystem
    packers: PackerEcosystem
    domains: DomainEcosystem
    families: FamilyCatalog
    processes: ProcessEcosystem
    machines: List[SyntheticMachine]


@dataclasses.dataclass
class ShardResult:
    """Everything one shard contributes to the merged corpus."""

    shard_index: int
    events: List[DownloadEvent]
    files: Dict[str, SyntheticFile]
    spawned_process_shas: Set[str]


def build_context(config: "WorldConfig") -> WorldContext:
    """Deterministically build the shared ecosystems for ``config``.

    Stream indices 0-6 match the pre-engine world builder (5 and 7, the
    old file-factory and simulator streams, are intentionally left unused:
    those draws are per-shard now).
    """
    seeds = np.random.SeedSequence(config.seed).spawn(_CONTEXT_STREAMS)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    names = NameFactory(rngs[0])
    signers = SignerEcosystem(rngs[1], names, config.scale)
    packers = PackerEcosystem(names)
    domains = DomainEcosystem(rngs[2], names, config.scale)
    families = FamilyCatalog(rngs[3], names, config.scale)
    processes = ProcessEcosystem(rngs[4], names, config.scale)
    machines = list(
        MachineFactory(rngs[6], names).generate(config.machine_count)
    )
    return WorldContext(
        names=names,
        signers=signers,
        packers=packers,
        domains=domains,
        families=families,
        processes=processes,
        machines=machines,
    )


def plan_shards(machine_count: int, shards: int) -> List[Tuple[int, int]]:
    """Balanced contiguous ``[start, stop)`` machine slices, one per shard.

    The plan depends only on ``(machine_count, shards)``, so the partition
    -- and therefore the generated world -- is a function of the config.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    base, remainder = divmod(machine_count, shards)
    plan: List[Tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < remainder else 0)
        plan.append((start, stop))
        start = stop
    return plan


def _shard_seed(config: "WorldConfig", shard_index: int) -> np.random.SeedSequence:
    """The root seed of one shard.

    ``SeedSequence`` children are keyed by spawn index alone, so spawning
    ``_CONTEXT_STREAMS + shards`` children from a fresh root reproduces the
    exact streams the context builder left unspawned.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(_CONTEXT_STREAMS + config.shards)
    return children[_CONTEXT_STREAMS + shard_index]


def simulate_shard(
    context: WorldContext, config: "WorldConfig", shard_index: int
) -> ShardResult:
    """Run one shard's simulation against the shared context."""
    if not 0 <= shard_index < config.shards:
        raise ValueError(
            f"shard_index {shard_index} outside [0, {config.shards})"
        )
    with trace.span("synth.shard", shard=shard_index) as span:
        start, stop = plan_shards(
            len(context.machines), config.shards
        )[shard_index]
        machines = context.machines[start:stop]
        sim_seed, name_seed, file_seed = (
            _shard_seed(config, shard_index).spawn(3)
        )
        names = NameFactory(
            np.random.default_rng(name_seed),
            counter_start=(shard_index + 1) * _SHARD_COUNTER_STRIDE,
        )
        factory = FileFactory(
            np.random.default_rng(file_seed),
            names,
            context.signers,
            context.packers,
            context.families,
        )
        pool = FilePool(factory)
        simulator = Simulator(
            np.random.default_rng(sim_seed),
            machines,
            context.processes,
            context.domains,
            pool,
            unknown_latent_malicious=config.unknown_latent_malicious_fraction,
        )
        shard_corpus = simulator.run()
        span.set_attribute("events", len(shard_corpus.events))
        obs_metrics.counter(
            "world.shard_events", "Events generated inside shards"
        ).inc(len(shard_corpus.events))
    return ShardResult(
        shard_index=shard_index,
        events=shard_corpus.events,
        files=shard_corpus.files,
        spawned_process_shas=shard_corpus.spawned_process_shas,
    )


def merge_shards(
    context: WorldContext,
    config: "WorldConfig",
    results: List[ShardResult],
) -> RawCorpus:
    """Deterministically merge shard outputs into one raw corpus.

    Events use a k-way merge over the per-shard timestamp-sorted streams
    (:func:`heapq.merge` is stable, so ties resolve in shard order); files
    and spawned-process hashes are disjoint unions applied in shard order.
    """
    ordered = sorted(results, key=attrgetter("shard_index"))
    if [r.shard_index for r in ordered] != list(range(config.shards)):
        raise ValueError("merge requires exactly one result per shard")
    events = list(merge_sorted_streams([r.events for r in ordered]))
    files: Dict[str, SyntheticFile] = {}
    spawned: Set[str] = set()
    for result in ordered:
        files.update(result.files)
        spawned.update(result.spawned_process_shas)
    return RawCorpus(
        events=events,
        files=files,
        benign_processes={
            process.sha1: process
            for process in context.processes.all_processes()
        },
        spawned_process_shas=spawned,
        machines=context.machines,
        domains=context.domains.all_domains(),
    )


def generate_world(config: "WorldConfig") -> Tuple[WorldContext, RawCorpus]:
    """Build the shared context, simulate the shards in order, merge.

    Returns ``(context, corpus)``.  Instrumentation (spans, counters)
    reads clocks only -- it never touches RNG state, so tracing cannot
    perturb the corpus.
    """
    with trace.span(
        "synth.generate_world",
        seed=config.seed,
        scale=config.scale,
        shards=config.shards,
    ) as root:
        with trace.span("synth.build_context") as ctx_span:
            context = build_context(config)
            ctx_span.set_attribute("machines", len(context.machines))
        with trace.span("synth.simulate_shards"):
            results = [
                simulate_shard(context, config, index)
                for index in range(config.shards)
            ]
        with trace.span("synth.merge_shards") as merge_span:
            corpus = merge_shards(context, config, results)
            merge_span.set_attribute("events", len(corpus.events))
        obs_metrics.counter(
            "world.events_generated", "Raw download events generated"
        ).inc(len(corpus.events))
        obs_metrics.counter(
            "world.files_generated", "Distinct synthetic files generated"
        ).inc(len(corpus.files))
        obs_metrics.counter(
            "world.shards_simulated", "Generation shards simulated"
        ).inc(config.shards)
        root.set_attribute("events", len(corpus.events))
    return context, corpus

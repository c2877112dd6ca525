"""World builder: one-call generation of a calibrated synthetic corpus.

:class:`WorldConfig` is the single knob surface -- ``seed`` makes the
whole world reproducible, ``scale`` multiplies the paper's full-corpus
volumes (1.14M machines / 3.07M events at ``scale=1.0``; values above
1.0 oversample the paper for stress workloads), and ``shards`` fixes the
deterministic partition the generation engine simulates
(:mod:`repro.synth.engine`).

Typical use::

    from repro.synth import WorldConfig, generate_dataset

    dataset, world = generate_dataset(WorldConfig(seed=7, scale=0.02))

``dataset`` is the filtered :class:`~repro.telemetry.dataset.TelemetryDataset`
the analyses consume; ``world`` retains the raw corpus, latent truth and
filter statistics.

Caching never changes the produced world: the corpus is a pure function
of the config.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..telemetry.agent import ReportingPolicy
from ..telemetry.collector import FilterStats, collect
from ..telemetry.dataset import TelemetryDataset
from . import calibration, engine
from .simulator import RawCorpus


@dataclasses.dataclass(frozen=True)
class WorldConfig:
    """Configuration of one synthetic world.

    ``unknown_latent_malicious_fraction`` controls what the *unknown*
    files latently are -- the paper's central unanswerable question.  The
    default is the calibration value; sweeping it (see
    ``benchmarks/bench_ablation_unknowns.py``) shows how the measurement
    and labeling results depend on that assumption.

    ``shards`` is part of the world's identity: the same ``(seed, scale,
    shards)`` triple always yields the bit-identical corpus.
    """

    seed: int = 7
    scale: float = 0.02
    sigma: int = 20
    unknown_latent_malicious_fraction: float = (
        calibration.UNKNOWN_LATENT_MALICIOUS_FRACTION
    )
    shards: int = 8

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.sigma < 1:
            raise ValueError(f"sigma must be >= 1, got {self.sigma}")
        if not 0.0 <= self.unknown_latent_malicious_fraction <= 1.0:
            raise ValueError(
                "unknown_latent_malicious_fraction must be a probability"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    @property
    def machine_count(self) -> int:
        """Number of machines to simulate at this scale."""
        return calibration.scaled(calibration.TOTAL_MACHINES, self.scale,
                                  minimum=50)


class World:
    """A fully built synthetic world with its generated corpus.

    Generation runs in the calling process.  ``jobs`` accepts only 1: it
    remains because the benchmark harness (``perfbench/rep.py``) builds
    worlds as ``World(config, jobs=1)`` and that harness is only edited
    together with the benchmark definition.  Drop the keyword with the
    next benchmark change.
    """

    def __init__(self, config: WorldConfig, jobs: int = 1) -> None:
        if jobs != 1:
            raise ValueError(
                f"worlds are generated in-process; jobs must be 1, got {jobs}"
            )
        self.config = config
        context, corpus = engine.generate_world(config)
        self.signers = context.signers
        self.packers = context.packers
        self.domains = context.domains
        self.families = context.families
        self.processes = context.processes
        self.corpus: RawCorpus = corpus
        self.filter_stats: Optional[FilterStats] = None
        self._dataset: Optional[TelemetryDataset] = None

    def collect(self) -> TelemetryDataset:
        """Apply the reporting filters and return the analyzed dataset.

        The filtered dataset is memoized: collection is deterministic, so
        repeat calls (e.g. through the session cache) reuse the result.
        """
        if self._dataset is None:
            policy = ReportingPolicy(sigma=self.config.sigma)
            dataset, stats = collect(
                self.corpus.events,
                self.corpus.file_records(),
                self.corpus.process_records(),
                policy,
            )
            self.filter_stats = stats
            self._dataset = dataset
        return self._dataset


def generate_corpus(config: Optional[WorldConfig] = None) -> RawCorpus:
    """Build a world and return only its raw (pre-filter) corpus."""
    return World(config or WorldConfig()).corpus


def generate_dataset(
    config: Optional[WorldConfig] = None,
) -> Tuple[TelemetryDataset, World]:
    """Build a world, apply reporting filters, return (dataset, world)."""
    world = World(config or WorldConfig())
    dataset = world.collect()
    return dataset, world

"""One-call pipeline wiring: world -> telemetry -> ground truth.

Most examples, benchmarks and integration tests need the same setup: a
calibrated synthetic world, the filtered telemetry dataset, the labeled
dataset and the Alexa service (which doubles as a classification
feature).  :func:`build_session` bundles them.

Sessions are cached per interpreter (keyed by the world config's content
digest, see :mod:`repro.synth.cache`): repeat calls with an identical
config return the same :class:`Session` object instead of regenerating
and relabeling the world.  Pass ``cache=False`` to force a fresh build.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Optional, Union

from .labeling.ground_truth import (
    GroundTruthLabeler,
    LabeledDataset,
    build_labeler,
)
from .labeling.whitelists import AlexaService
from .obs import metrics as obs_metrics
from .obs import trace
from .synth.cache import clear_world_cache, config_digest, get_world
from .synth.world import World, WorldConfig
from .telemetry import store as telemetry_store
from .telemetry.dataset import TelemetryDataset

_SESSIONS: Dict[str, "Session"] = {}


@dataclasses.dataclass
class Session:
    """A fully wired reproduction session."""

    config: WorldConfig
    world: World
    dataset: TelemetryDataset
    labeled: LabeledDataset
    labeler: GroundTruthLabeler
    alexa: AlexaService

    def frame(self, with_alexa: bool = True):
        """The session's memoized columnar analysis frame.

        Delegates to :func:`repro.analysis.frame.session_frame`, which
        builds the :class:`~repro.analysis.frame.SessionFrame` at most
        once per labeled dataset (keyed by content digest) -- the ~30
        table/figure analyses all share it.  ``with_alexa=True`` (the
        default) attaches the per-domain Alexa rank side table needed by
        the Figure 3/6 analyses.
        """
        from .analysis.frame import session_frame

        return session_frame(self.labeled, self.alexa if with_alexa else None)


def build_session(
    config: Optional[WorldConfig] = None,
    cache: bool = True,
    dataset_dir: Optional[Union[str, Path]] = None,
) -> Session:
    """Generate, collect and label one synthetic corpus.

    With ``cache=True`` (the default) both the world and the fully
    labeled session are memoized by config digest, so every later call
    with the same config -- from tests, benchmarks or examples -- reuses
    the generated world instead of rebuilding it.

    ``dataset_dir`` points the session at a dataset store (see
    :mod:`repro.telemetry.store`; ``repro export`` and ``repro serve``
    write one): the telemetry dataset is loaded -- checksum- and
    digest-verified -- from disk instead of re-collected from the
    world's raw corpus.  Imported sessions bypass the session memo,
    since the store's content is not part of the config digest.
    """
    config = config or WorldConfig()
    digest = config_digest(config)
    use_memo = cache and dataset_dir is None
    with trace.span(
        "pipeline.build_session",
        seed=config.seed,
        scale=config.scale,
        digest=digest[:12],
    ) as span:
        if use_memo:
            session = _SESSIONS.get(digest)
            if session is not None:
                obs_metrics.counter(
                    "pipeline.session_cache_hits",
                    "build_session calls served from the session memo",
                ).inc()
                span.set_attribute("session_cache", "hit")
                return session
        with trace.span("pipeline.generate"):
            world = get_world(config, cache=cache)
        if dataset_dir is not None:
            dataset = telemetry_store.load_dataset(dataset_dir)
        else:
            with trace.span("pipeline.collect"):
                dataset = world.collect()
        with trace.span("pipeline.label"):
            labeler = build_labeler(world, dataset)
            labeled = labeler.label_dataset(dataset)
        alexa = AlexaService.build(world.corpus.domains)
        session = Session(
            config=config,
            world=world,
            dataset=dataset,
            labeled=labeled,
            labeler=labeler,
            alexa=alexa,
        )
        if use_memo:
            _SESSIONS[digest] = session
        obs_metrics.counter(
            "pipeline.sessions_built", "Sessions built from scratch"
        ).inc()
        span.set_attribute("events", len(dataset.events))
    return session


@dataclasses.dataclass
class StreamOutcome:
    """Everything one streamed ingestion run produced.

    ``digest_match`` is the equivalence oracle's verdict: the streamed
    store's content digest equals the batch-collected dataset's.
    ``merged_stats`` sums the fleet's edge filter counts with the
    service's central counts; it must equal batch ``collect`` stats.
    """

    session: Session
    ingest: "object"
    load: "object"
    digest_match: bool
    merged_stats: "object"


def stream_session(
    config: Optional[WorldConfig] = None,
    directory: Union[str, Path] = "serve-store",
    *,
    agents: int = 4,
    serve_config=None,
    faults=None,
    threaded: bool = False,
    rate_per_sec: Optional[float] = None,
    resume: bool = False,
    cache: bool = True,
) -> StreamOutcome:
    """Run the streaming ingestion path for one config, end to end.

    Builds (or, with ``cache=True``, reuses) the batch session for the
    config, then replays its raw corpus through a
    :class:`repro.serve.LoadGenerator` agent fleet into an
    :class:`repro.serve.IngestService` writing ``directory``.  The batch
    dataset is the oracle: ``digest_match`` and ``merged_stats`` let
    callers (the CLI, the serve bench, CI) assert equivalence without
    re-deriving anything.
    """
    from .serve import IngestService, LoadGenerator

    session = build_session(config, cache=cache)
    corpus = session.world.corpus
    files = corpus.file_records()
    processes = corpus.process_records()
    with trace.span(
        "pipeline.stream_session", agents=agents, threaded=threaded
    ) as span:
        service = IngestService(
            directory,
            files,
            processes,
            config=serve_config,
            resume=resume,
            fault_hook=faults.make_fault_hook() if faults else None,
        )
        generator = LoadGenerator(corpus.events, agents=agents, faults=faults)
        if threaded:
            service.install_signal_handler()
            service.start()
            load_report = generator.run_threaded(
                service, rate_per_sec=rate_per_sec
            )
            ingest_report = service.join()
        else:
            load_report = generator.run_inline(service)
            ingest_report = service._report
        span.set_attribute("reported", ingest_report.reported)
    merged = load_report.edge_stats + ingest_report.stats
    # Under shedding or an early stop the stream is legitimately lossy;
    # the oracle only claims equality for complete, lossless runs.
    digest_match = (
        ingest_report.content_digest == session.dataset.content_digest()
    )
    return StreamOutcome(
        session=session,
        ingest=ingest_report,
        load=load_report,
        digest_match=digest_match,
        merged_stats=merged,
    )


def validate_session(session: Session, p_floor: Optional[float] = None):
    """Fidelity-check one session against every calibration target.

    Thin pipeline-level hook over
    :func:`repro.validation.evaluate_session` (imported lazily so the
    pipeline does not pay for the validation stack unless asked):
    returns the per-target :class:`repro.validation.TargetResult` list
    for ``session``.  For the multi-seed gate use
    :func:`repro.validation.run_seed_sweep`.
    """
    from .validation import DEFAULT_P_FLOOR, evaluate_session

    floor = DEFAULT_P_FLOOR if p_floor is None else p_floor
    return evaluate_session(session, p_floor=floor)


def clear_session_cache() -> None:
    """Drop all memoized sessions (worlds are cleared separately)."""
    _SESSIONS.clear()
    obs_metrics.counter(
        "cache.session_clears", "clear_session_cache invocations"
    ).inc()


def clear_all_caches(disk: bool = False) -> None:
    """Drop every pipeline cache in one call.

    Clears the session memo, the world cache
    (:func:`repro.synth.cache.clear_world_cache`), the learned-rule
    memo (:func:`repro.core.evaluation.clear_rule_cache`) and the
    analysis frame memo
    (:func:`repro.analysis.frame.clear_frame_cache`), which
    :func:`clear_session_cache` alone leaves populated.  ``disk=True``
    additionally deletes on-disk world-cache entries.  Each layer's
    clear is counted in the metrics registry (``cache.session_clears``,
    ``cache.world_clears``, ``cache.rule_clears``,
    ``cache.frame_clears``).
    """
    from .analysis.frame import clear_frame_cache
    from .core.evaluation import clear_rule_cache

    clear_session_cache()
    clear_world_cache(disk=disk)
    clear_rule_cache()
    clear_frame_cache()

"""Bench trajectory recording and the perf-regression gate.

This is the repo's one timing harness (``repro bench``); the paper's
tables come from the CLI, and the experiment scripts under
``benchmarks/`` render tables without timing them.  It has three parts:

* a small registry of **in-process benches** (:data:`BENCHES`) that
  exercise the pipeline's hot paths -- cold world generation, columnar
  rule matching, dataset-store I/O, the shared-frame analysis pass and
  the streaming ingest service -- each returning a :class:`BenchResult`
  with wall time, per-bench peak RSS (the kernel watermark is reset
  around each bench via :func:`repro.obs.resources.reset_peak_rss`) and
  a throughput figure;
* a **trajectory file** (``benchmarks/output/BENCH_trajectory.json``)
  of schema-versioned entries -- git revision, timestamp, host CPU
  count, params, timings -- appended to by every ``repro bench`` run,
  so the numbers form a history instead of a snapshot;
* a **gate** (:func:`check_entry`): a new run is compared against the
  *median* of the trajectory entries with the same ``(bench, params)``
  key and flagged when wall time regresses by more than 20% or peak RSS
  by more than 15% (:data:`DEFAULT_TOLERANCES`; per-metric overrides via
  ``repro bench --tolerance metric=frac``).  ``repro bench --check``
  exits non-zero on any violation -- the CI hook.

Test hook: the ``REPRO_BENCH_HANDICAP`` environment variable (a float,
e.g. ``0.25``) synthetically inflates every measured wall time by that
fraction, letting tests prove the gate trips without slowing real code.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import manifest as obs_manifest
from . import resources

__all__ = [
    "BENCHES",
    "BenchResult",
    "DEFAULT_TOLERANCES",
    "GateViolation",
    "SCHEMA_VERSION",
    "append_entries",
    "check_entry",
    "entry_from_result",
    "load_trajectory",
    "match_key",
    "parse_tolerances",
    "run_benches",
]

#: Version of the trajectory-entry schema.  Entries with a different
#: schema version never match each other in the gate.
SCHEMA_VERSION = 1

#: Relative regression tolerated per gated metric (fraction above the
#: trajectory median).  Wall time is noisier than memory, hence looser.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "wall_seconds": 0.20,
    "peak_rss_kb": 0.15,
}

#: Bench scales: ``--quick`` is CI-sized, the default is five times
#: larger.
QUICK_SCALE = 0.002
DEFAULT_SCALE = 0.01


@dataclasses.dataclass
class BenchResult:
    """One bench execution's measurements."""

    name: str
    wall_seconds: float
    peak_rss_kb: float
    peak_rss_source: str
    throughput: Optional[float]
    throughput_units: str
    params: Dict[str, Any]
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class GateViolation:
    """One gated metric exceeding its tolerance."""

    bench: str
    metric: str
    observed: float
    baseline: float
    tolerance: float

    @property
    def ratio(self) -> float:
        return self.observed / self.baseline if self.baseline else float("inf")

    def render(self) -> str:
        return (
            f"{self.bench}: {self.metric} {self.observed:.4g} is "
            f"{(self.ratio - 1) * 100:+.1f}% vs trajectory median "
            f"{self.baseline:.4g} (tolerance +{self.tolerance * 100:.0f}%)"
        )


# ----------------------------------------------------------------------
# Registered benches (imports deferred: obs must not import the pipeline
# at module load -- the pipeline imports obs)
# ----------------------------------------------------------------------


def _measure(func: Callable[[], Any], repeats: int = 1) -> Tuple[float, Any]:
    """(best wall seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _bench_world_generation(scale: float) -> BenchResult:
    """Cold sequential world generation + collection (cache bypassed)."""
    from ..synth.world import World, WorldConfig

    config = WorldConfig(seed=3, scale=scale)
    wall, dataset = _measure(lambda: World(config, jobs=1).collect())
    events = len(dataset.events)
    return BenchResult(
        name="world_generation",
        wall_seconds=wall,
        peak_rss_kb=0.0,
        peak_rss_source="",
        throughput=events / wall if wall else None,
        throughput_units="events/s",
        params={"scale": scale},
        extra={"events": events, "seed": config.seed},
    )


def _bench_rule_matching(scale: float) -> BenchResult:
    """Columnar batch classification of one month-pair workload."""
    from ..core.classifier import ConflictPolicy, RuleBasedClassifier
    from ..core.dataset import TrainingSet, unknown_vectors
    from ..core.evaluation import learn_rules
    from ..pipeline import build_session
    from ..synth.world import WorldConfig

    session = build_session(WorldConfig(seed=3, scale=scale))
    rules, training = learn_rules(session.labeled, session.alexa, 0)
    selected = rules.select(0.001)
    train_shas = {i.sha1 for i in training.instances}
    test_set = TrainingSet.from_labeled(
        session.labeled.month_slice(1), session.alexa,
        exclude_sha1s=train_shas,
    )
    unknowns = unknown_vectors(
        session.labeled.month_slice(1), session.alexa,
        exclude_sha1s=set(session.labeled.month_slice(0).dataset.files),
    )
    unknown_rows = [vector.values for vector in unknowns.values()]
    classifier = RuleBasedClassifier(selected, ConflictPolicy.REJECT)

    def classify():
        classifier.evaluate(test_set.instances)
        classifier.classify_batch(unknown_rows)

    wall, _ = _measure(classify, repeats=3)
    rows = len(test_set.instances) + len(unknown_rows)
    return BenchResult(
        name="rule_matching",
        wall_seconds=wall,
        peak_rss_kb=0.0,
        peak_rss_source="",
        throughput=rows / wall if wall else None,
        throughput_units="rows/s",
        params={"scale": scale},
        extra={"rows": rows, "rules_selected": len(selected)},
    )


def _bench_dataset_io(scale: float) -> BenchResult:
    """Dataset-store save + load round trip (plain layout)."""
    from ..pipeline import build_session
    from ..synth.world import WorldConfig
    from ..telemetry import store

    session = build_session(WorldConfig(seed=3, scale=scale))
    dataset = session.dataset
    rows = len(dataset.events) + len(dataset.files) + len(dataset.processes)
    with tempfile.TemporaryDirectory(prefix="repro-bench-io-") as tmp:
        directory = Path(tmp) / "store"

        def round_trip():
            store.save_dataset(dataset, directory)
            store.load_dataset(directory)

        wall, _ = _measure(round_trip, repeats=3)
    return BenchResult(
        name="dataset_io",
        wall_seconds=wall,
        peak_rss_kb=0.0,
        peak_rss_source="",
        throughput=2 * rows / wall if wall else None,
        throughput_units="rows/s",
        params={"scale": scale},
        extra={"rows": rows},
    )


def _bench_analysis(scale: float) -> BenchResult:
    """Columnar frame build + every table/figure analysis over it.

    Measures the two halves of ``repro report --all`` separately: the
    one-time :class:`~repro.analysis.frame.SessionFrame` build (cache
    cleared first, so the span/counter fire) and a full pass of all
    registered analyses on the shared frame.
    """
    from .. import analysis
    from ..analysis import frame as frame_mod
    from ..pipeline import build_session
    from ..synth.world import WorldConfig

    config = WorldConfig(seed=3, scale=scale)
    session = build_session(config)
    labeled, alexa = session.labeled, session.alexa
    events = len(labeled.dataset.events)

    def run_all():
        analysis.monthly_summary(labeled)
        analysis.family_distribution(labeled)
        analysis.type_breakdown(labeled)
        analysis.prevalence_report(labeled)
        analysis.domain_popularity(labeled)
        analysis.files_per_domain(labeled)
        analysis.domains_per_type(labeled)
        analysis.unknown_download_domains(labeled)
        analysis.alexa_rank_distribution(labeled, alexa)
        analysis.signed_percentages(labeled)
        analysis.signer_counts(labeled)
        analysis.top_signers(labeled)
        analysis.exclusive_signers(labeled)
        analysis.shared_signer_scatter(labeled)
        analysis.packer_report(labeled)
        analysis.benign_process_behavior(labeled)
        analysis.browser_behavior(labeled)
        analysis.malicious_process_behavior(labeled)
        analysis.unknown_download_processes(labeled)
        analysis.infection_timing(labeled)
        analysis.unknown_characteristics(labeled)

    frame_mod.clear_frame_cache()
    build_wall, frame = _measure(
        lambda: frame_mod.session_frame(labeled, alexa)
    )
    analyses_wall, _ = _measure(run_all, repeats=3)
    wall = build_wall + analyses_wall
    return BenchResult(
        name="analysis",
        wall_seconds=wall,
        peak_rss_kb=0.0,
        peak_rss_source="",
        throughput=events / wall if wall else None,
        throughput_units="events/s",
        params={"scale": scale},
        extra={
            "events": events,
            "analyses": 21,
            "frame_build_seconds": build_wall,
            "analyses_seconds": analyses_wall,
            "frame_mb": round(frame.nbytes() / 1e6, 3),
        },
    )


def _bench_serve(scale: float) -> BenchResult:
    """Streaming ingestion: loadgen -> bounded queue -> store append.

    Replays the session corpus through the full serve path (4 edge
    agents, index merge, central prevalence filter, batched append
    session) in threaded mode, so the measured figures are the ones the
    ISSUE cares about: sustained events/sec through the queue and the
    p99 arrival-to-durable-append latency.  Digest equality with the
    batch dataset is asserted -- a bench that drops events would
    otherwise flatter itself.
    """
    from ..pipeline import build_session
    from ..serve import IngestService, LoadGenerator, ServeConfig
    from ..synth.world import WorldConfig

    session = build_session(WorldConfig(seed=3, scale=scale))
    corpus = session.world.corpus
    files = corpus.file_records()
    processes = corpus.process_records()

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        directory = Path(tmp) / "store"
        start = time.perf_counter()
        service = IngestService(
            directory, files, processes,
            config=ServeConfig(queue_capacity=8192, batch_max=1024),
        )
        service.start()
        LoadGenerator(corpus.events, agents=4).run_threaded(service)
        report = service.join()
        wall = time.perf_counter() - start
    if report.content_digest != session.dataset.content_digest():
        raise RuntimeError("serve bench lost events: digest mismatch")
    return BenchResult(
        name="serve",
        wall_seconds=wall,
        peak_rss_kb=0.0,
        peak_rss_source="",
        throughput=report.ingested / wall if wall else None,
        throughput_units="events/s",
        params={"scale": scale},
        extra={
            "ingested": report.ingested,
            "reported": report.reported,
            "batches": report.batches,
            "p99_latency_ms": round(report.p99_latency_ms, 3),
            "queue_max_depth": report.queue_max_depth,
            "agents": 4,
        },
    )


#: Registered benches: name -> callable(scale) -> BenchResult.  Tests
#: monkeypatch extra entries in; ``repro bench --bench`` selects subsets.
BENCHES: Dict[str, Callable[[float], BenchResult]] = {
    "world_generation": _bench_world_generation,
    "rule_matching": _bench_rule_matching,
    "dataset_io": _bench_dataset_io,
    "analysis": _bench_analysis,
    "serve": _bench_serve,
}


def run_benches(
    names: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    quick: bool = False,
) -> List[BenchResult]:
    """Execute registered benches, RSS-accounted, in registry order.

    The kernel peak-RSS watermark is reset before each bench (where
    permitted) so ``peak_rss_kb`` is a per-bench figure rather than the
    process high-water mark; when ``/proc/self/clear_refs`` is sealed
    off the current-RSS reading after the bench is recorded instead and
    ``peak_rss_source`` says so.
    """
    if scale is None:
        scale = QUICK_SCALE if quick else DEFAULT_SCALE
    selected = list(names) if names else list(BENCHES)
    unknown = [name for name in selected if name not in BENCHES]
    if unknown:
        raise KeyError(
            f"unknown bench(es): {', '.join(unknown)}; registered: "
            f"{', '.join(sorted(BENCHES))}"
        )
    handicap = float(os.environ.get("REPRO_BENCH_HANDICAP", "0") or 0)
    results: List[BenchResult] = []
    for name in selected:
        watermark_reset = resources.reset_peak_rss()
        result = BENCHES[name](scale)
        if watermark_reset:
            result.peak_rss_kb = resources.peak_rss_kb()
            result.peak_rss_source = "vmhwm"
        else:
            result.peak_rss_kb = resources.rss_kb()
            result.peak_rss_source = "rss"
        if handicap:
            result.wall_seconds *= 1.0 + handicap
            if result.throughput:
                result.throughput /= 1.0 + handicap
            result.extra["handicap"] = handicap
        results.append(result)
    return results


# ----------------------------------------------------------------------
# Trajectory persistence
# ----------------------------------------------------------------------


def entry_from_result(result: BenchResult) -> Dict[str, Any]:
    """The schema-versioned trajectory entry for one bench result."""
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": result.name,
        "created_at": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
        "git_rev": obs_manifest.git_revision(),
        "cpu_count": os.cpu_count(),
        "params": dict(result.params),
        "wall_seconds": result.wall_seconds,
        "peak_rss_kb": result.peak_rss_kb,
        "peak_rss_source": result.peak_rss_source,
        "throughput": result.throughput,
        "throughput_units": result.throughput_units,
        "extra": dict(result.extra),
    }


def match_key(entry: Dict[str, Any]) -> Tuple[Any, ...]:
    """The identity under which trajectory entries are comparable."""
    return (
        entry.get("schema_version"),
        entry.get("bench"),
        json.dumps(entry.get("params") or {}, sort_keys=True),
    )


def load_trajectory(path) -> List[Dict[str, Any]]:
    """All entries of a trajectory file (empty list if absent)."""
    path = Path(path)
    if not path.exists():
        return []
    payload = json.loads(path.read_text(encoding="utf-8"))
    return list(payload.get("entries") or [])


def append_entries(path, entries: Sequence[Dict[str, Any]]) -> Path:
    """Append entries to a trajectory file (atomic rewrite)."""
    path = Path(path)
    existing = load_trajectory(path)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "entries": existing + list(entries),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    tmp.replace(path)
    return path


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------


def parse_tolerances(specs: Sequence[str]) -> Dict[str, float]:
    """Merge ``metric=fraction`` override strings over the defaults."""
    tolerances = dict(DEFAULT_TOLERANCES)
    for spec in specs:
        metric, _, value = spec.partition("=")
        metric = metric.strip()
        if not value or metric not in DEFAULT_TOLERANCES:
            raise ValueError(
                f"bad tolerance {spec!r}: expected one of "
                f"{', '.join(sorted(DEFAULT_TOLERANCES))} = fraction"
            )
        tolerances[metric] = float(value)
    return tolerances


def check_entry(
    history: Sequence[Dict[str, Any]],
    entry: Dict[str, Any],
    tolerances: Optional[Dict[str, float]] = None,
    min_history: int = 1,
) -> List[GateViolation]:
    """Gate one new entry against its trajectory.

    The baseline per metric is the **median** over history entries with
    the same :func:`match_key` -- robust to the odd noisy run poisoning
    the trajectory.  With fewer than ``min_history`` matching entries
    there is nothing to regress against and the entry passes.
    """
    tolerances = tolerances if tolerances is not None else DEFAULT_TOLERANCES
    key = match_key(entry)
    matching = [e for e in history if match_key(e) == key]
    if len(matching) < min_history:
        return []
    violations: List[GateViolation] = []
    for metric, tolerance in sorted(tolerances.items()):
        observed = entry.get(metric)
        values = [
            e[metric] for e in matching
            if isinstance(e.get(metric), (int, float)) and e[metric] > 0
        ]
        if not values or not isinstance(observed, (int, float)):
            continue
        baseline = statistics.median(values)
        if baseline > 0 and observed > baseline * (1.0 + tolerance):
            violations.append(
                GateViolation(
                    bench=str(entry.get("bench")),
                    metric=metric,
                    observed=float(observed),
                    baseline=float(baseline),
                    tolerance=float(tolerance),
                )
            )
    return violations

"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition::

    PYTHONPATH=src python3 perfbench/rep.py --workload paper_tables \\
        --seed 1 --spawned-at <time.monotonic() of the parent> \\
        [--spans-out perfbench/out/spans.jsonl] [--paced]

It builds the workload's inputs from the seed (set-up), runs the timed
phase, checks the outputs, and prints one JSON object as its last line:
set-up and timed-phase seconds (CPU and wall-clock), input events, peak
RSS, attempted and failed operations, output digests and, with
``--spans-out``, the per-layer metrics.  Only public ``repro`` functions
are called, and they are timed from here; the program's own tracer
stays off and generation runs with ``jobs=1``.

A traced repetition records its spans on a private
:class:`repro.obs.trace.Tracer`, around each call it makes into a layer
of ``repro`` (and, for per-event layers, around instance methods it
wraps).  The spans stay in memory and are written out once, as one
``id``/``name``/``start``/``end``/``parent`` line each, when the
repetition ends.  An untraced repetition's tracer is disabled: each
layer call pays one flag check, and no method is wrapped.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.trace import Span, Tracer
from repro.serve.service import percentile

#: World scale of each workload (a share of the paper's 3.07M events),
#: sized so that two repetitions fit in a 60 s run on a 2-core host
#: even when it runs 40% slow.  At 0.012, paper_tables passes all 26
#: fidelity targets for seeds 0-20; at 0.01 and at 0.015, some seeds
#: below 21 fail one.
SCALES = {"paper_tables": 0.012, "stream_ingest": 0.008}

#: Timed passes per untraced repetition.  stream_ingest's inline phase
#: repeats in one interpreter (each pass with a fresh service and
#: store), so a run holds more samples of it, spread over the run; only
#: a run's first repetition adds the paced phase, which leaves room for
#: three repetitions, so three set-ups, in a 60 s run.  paper_tables
#: makes one pass per fresh interpreter, so every memo starts empty.
#: Traced repetitions make one pass.
REPEATS = {"paper_tables": 1, "stream_ingest": 3}

#: Fixed offered rate of the paced ``stream_ingest`` phase: about a
#: third of the inline phase's throughput on a 2-core host.
OFFERED_RATE = 5000.0

#: Agents of the load generator's simulated fleet.
AGENTS = 4

#: The 22 paper outputs rendered from the labeled dataset, in report order.
RENDERS = (
    "render_table_i", "render_table_ii", "render_fig_1", "render_fig_2",
    "render_table_iii", "render_table_iv", "render_table_v", "render_fig_3",
    "render_fig_6", "render_table_vi", "render_table_vii",
    "render_table_viii", "render_table_ix", "render_fig_4", "render_packers",
    "render_table_x", "render_table_xi", "render_table_xii", "render_fig_5",
    "render_table_xiii", "render_table_xiv", "render_unknown_characteristics",
)
NEEDS_ALEXA = {"render_fig_3", "render_fig_6"}

#: Where repetitions write span files and scratch stores.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Cap on failure reasons carried in one result.
MAX_REASONS = 20


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------


class GcClock:
    """Total stop-the-world GC pause, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.paused = 0.0
        self._started = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.paused += time.perf_counter() - self._started


class Outcome:
    """Attempted/failed operation accounting of one repetition.

    ``integrity_ok`` turns false when a failure means an output is wrong
    or missing; a failed verdict on a correct output (a fidelity target
    that does not pass, a month with zero selected rules) leaves it true.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.integrity_ok = True

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, count: int, reason: str, wrong_output: bool = True) -> None:
        self.failed += count
        self.integrity_ok = self.integrity_ok and not wrong_output
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(reason)


def counter_value(name: str) -> float:
    from repro.obs import metrics

    return metrics.counter(name).value


def sha256_texts(texts: Dict[str, str]) -> str:
    hasher = hashlib.sha256()
    for name, text in texts.items():
        hasher.update(name.encode() + b"\0" + text.encode("utf-8") + b"\0")
    return hasher.hexdigest()


def threads_now() -> int:
    """Kernel threads of this process (Python and native alike)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return threading.active_count()


class Timed:
    """One timed phase: its wall-clock and CPU time, peak RSS and GC pause.

    CPU time is ``time.process_time()``: user plus system time of every
    thread of this process.  It leaves out the time the process waits
    for a processor the host has given to someone else, which wall-clock
    time counts.  ``cpu_start`` is the CPU the process had used before
    the phase began, interpreter start-up and imports included.
    """

    def __init__(self, gc_clock: GcClock) -> None:
        self.gc_clock = gc_clock

    def __enter__(self) -> "Timed":
        from repro.obs import resources

        resources.reset_peak_rss()
        self.gc_before = self.gc_clock.paused
        self.start = time.monotonic()
        self.cpu_start = time.process_time()
        return self

    def __exit__(self, *exc: Any) -> None:
        from repro.obs import resources

        self.cpu = time.process_time() - self.cpu_start
        self.end = time.monotonic()
        self.wall = self.end - self.start
        self.peak_rss_mb = resources.peak_rss_kb() / 1024.0
        self.gc_pause = self.gc_clock.paused - self.gc_before

    def summary(self) -> Dict[str, float]:
        return {"wall_s": self.wall, "cpu_s": self.cpu,
                "peak_rss_mb": self.peak_rss_mb}


def repeats(workload: str, tracer: Tracer) -> int:
    return 1 if tracer.enabled else REPEATS[workload]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def call(tracer: Tracer, name: str, fn: Callable, *args: Any,
         **kwargs: Any) -> Any:
    """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
    with tracer.span(name):
        return fn(*args, **kwargs)


def wrap(tracer: Tracer, owner: Any, attr: str, name: str,
         after: Optional[Callable[[Any, Span], None]] = None) -> None:
    """Replace ``owner.attr`` by a spanned wrapper (traced runs only).

    ``after(result, span)`` runs once the wrapped call has returned and
    its span has closed, to record counts on the span.
    """
    if not tracer.enabled:
        return
    inner = getattr(owner, attr)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name) as span:
            result = inner(*args, **kwargs)
        if after is not None:
            after(result, span)
        return result

    setattr(owner, attr, wrapper)


def all_spans(tracer: Tracer) -> Iterator[Span]:
    for root in tracer.finished_spans():
        yield from root.iter()


def named(tracer: Tracer, name: str) -> List[Span]:
    return [span for span in all_spans(tracer) if span.name == name]


def total(tracer: Tracer, name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(span.duration for span in named(tracer, name))


def layer_summary(tracer: Tracer, window: Timed,
                  layers: Dict[str, float]) -> None:
    """Add per-layer self times and the unaccounted share of ``window``.

    A span's self time is its duration minus its children's; its layer
    is the first dotted part of its name.  Only spans inside the window
    count.
    """
    self_times: Dict[str, float] = {}
    for span in all_spans(tracer):
        if span.start >= window.start and span.end <= window.end:
            own = span.duration - sum(c.duration for c in span.children)
            layer = span.name.split(".", 1)[0]
            self_times[layer] = self_times.get(layer, 0.0) + own
    for layer, seconds in self_times.items():
        layers[f"{layer}.self_s"] = seconds
    covered = sum(self_times.values())
    layers["bench.unaccounted_frac"] = 1.0 - covered / window.wall


def dump_spans(tracer: Tracer, path: Path) -> None:
    """Write every span as one JSON line: id, name, start, end, parent."""
    ids = itertools.count(1)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        def write(span: Span, parent: Optional[int]) -> None:
            span_id = next(ids)
            row = {"id": span_id, "name": span.name, "start": span.start,
                   "end": span.end, "parent": parent}
            if span.attributes:
                row["attrs"] = span.attributes
            handle.write(json.dumps(row, sort_keys=True) + "\n")
            for child in span.children:
                write(child, span_id)

        for root in tracer.finished_spans():
            write(root, None)


# ----------------------------------------------------------------------
# paper_tables
# ----------------------------------------------------------------------


def run_paper_tables(config, tracer: Tracer, gc_clock: GcClock,
                     specs=None) -> Dict[str, Any]:
    """World -> collect -> label -> frame -> 22 renders -> 26 targets,
    then PART rules and month pairs -> Tables XVI/XVII.

    ``specs`` replaces the fidelity target registry (the self-test uses
    it to force failing and skipped targets); ``None`` checks every
    target.  A target that cannot be evaluated (``evaluate_session``
    raises, or the verdict is ``skipped`` for too little data) is a
    failed operation.  A ``fail`` verdict is not: it is a finding about
    this one seed's world, which ``repro.validation.runner`` treats as
    an anecdote and judges only over a seed sweep.  It is reported as
    ``targets_failed`` and the per-layer ``validation.targets_failed``.
    """
    from repro import reporting
    from repro.analysis.frame import session_frame
    from repro.labeling.ground_truth import build_labeler
    from repro.labeling.whitelists import AlexaService
    from repro.pipeline import Session
    from repro.synth.world import World
    from repro.validation import all_targets, evaluate_session

    outcome = Outcome()
    texts: Dict[str, str] = {}
    specs = all_targets() if specs is None else specs
    builds0 = counter_value("analysis.frame_build")
    hits0 = counter_value("analysis.frame_hits")
    with Timed(gc_clock) as timed:
        world = call(tracer, "synth.generate", World, config, jobs=1)
        dataset = call(tracer, "telemetry.collect", world.collect)
        labeler = call(tracer, "labeling.build_labeler", build_labeler,
                       world, dataset)
        labeled = call(tracer, "labeling.label_dataset",
                       labeler.label_dataset, dataset)
        alexa = call(tracer, "labeling.alexa", AlexaService.build,
                     world.corpus.domains)
        frame = call(tracer, "analysis.frame_build", session_frame,
                     labeled, alexa)
        for name in RENDERS:
            outcome.attempt()
            renderer = getattr(reporting, name)
            args = (labeled, alexa) if name in NEEDS_ALEXA else (labeled,)
            try:
                text = call(tracer, "reporting.render", renderer, *args)
            except Exception:  # noqa: BLE001 - a failed render is counted
                traceback.print_exc()
                outcome.fail(1, f"{name} raised")
                continue
            if not text or not text.strip():
                outcome.fail(1, f"{name} returned empty text")
                continue
            texts[name] = text
        session = Session(config=config, world=world, dataset=dataset,
                          labeled=labeled, labeler=labeler, alexa=alexa)
        outcome.attempt(len(specs))
        try:
            results = call(tracer, "validation.evaluate", evaluate_session,
                           session, specs=specs)
        except Exception:  # noqa: BLE001 - every target counts as failed
            traceback.print_exc()
            results = []
            outcome.fail(len(specs), "evaluate_session raised")
        skipped = [r.name for r in results if r.verdict == "skipped"]
        if skipped:
            outcome.fail(len(skipped),
                         "fidelity targets skipped: " + ", ".join(skipped),
                         wrong_output=False)
        target_fails = [r.name for r in results if r.verdict == "fail"]
        passed = sum(r.verdict == "pass" for r in results)
        digest = sha256_texts(texts)
        core = tables_xvi_xvii(labeled, alexa, tracer, outcome)
    result = {
        "timed": [timed.summary()],
        "first_timed": timed,
        "events": len(world.corpus.events),
        "outcome": outcome,
        "digests": {"renders_sha256": digest,
                    "tables_xvi_xvii_sha256": core["digest"]},
        "info": {"targets_passed": passed, "targets": len(specs),
                 "targets_failed": target_fails,
                 "rows_classified": core["rows"]},
    }
    if tracer.enabled:
        stats = world.filter_stats
        layers = {
            "synth.generate_s": total(tracer, "synth.generate"),
            "synth.raw_events": len(world.corpus.events),
            "telemetry.collect_s": total(tracer, "telemetry.collect"),
            "telemetry.reported_frac": stats.reported / stats.observed,
            "labeling.build_labeler_s": total(tracer, "labeling.build_labeler"),
            "labeling.label_dataset_s": total(tracer, "labeling.label_dataset"),
            "labeling.hashes_labeled": (
                len(labeled.file_labels) + len(labeled.process_labels)
                + len(labeled.url_labels)
            ),
            "analysis.frame_build_s": total(tracer, "analysis.frame_build"),
            "analysis.frame_mb": frame.nbytes() / 2**20,
            "analysis.frame_builds": counter_value("analysis.frame_build") - builds0,
            "analysis.frame_hits": counter_value("analysis.frame_hits") - hits0,
            "reporting.render_s": total(tracer, "reporting.render"),
            "validation.evaluate_s": total(tracer, "validation.evaluate"),
            "validation.targets_failed": len(target_fails),
            "core.learn_rules_s": total(tracer, "core.learn_rules"),
            "core.training_instances": core["training_instances"],
            "core.rules_learned": core["rules_learned"],
            "core.month_pair_s": total(tracer, "core.month_pair"),
            "core.rule_memo_hits": core["memo_hits"],
            "core.rows_classified": core["rows"],
            "core.unknown_rejected_frac": (
                core["unknown_rejected"] / core["unknown_total"]
                if core["unknown_total"] else 0.0
            ),
            "runtime.gc_pause_s": timed.gc_pause,
        }
        layer_summary(tracer, timed, layers)
        result["layers"] = layers
    return result


def tables_xvi_xvii(labeled, alexa, tracer: Tracer,
                    outcome: Outcome) -> Dict[str, Any]:
    """Empty rule memo, six PART fits, six month pairs, Tables XVI/XVII.

    One operation per (month pair, tau) row.  A row fails if its call
    raises, if it selects zero rules, or if its unknown decisions
    outnumber its unknowns.
    """
    from repro.core.evaluation import (
        DEFAULT_TAUS, FullEvaluation, clear_rule_cache, evaluate_month_pair,
        learn_rules,
    )
    from repro.reporting import render_table_xvi, render_table_xvii
    from repro.telemetry.events import NUM_MONTHS

    months = range(NUM_MONTHS - 1)
    counts = {"training_instances": 0, "rules_learned": 0,
              "unknown_total": 0, "unknown_rejected": 0}
    runs = []
    clear_rule_cache()
    for month in months:
        try:
            rules, training = call(tracer, "core.learn_rules", learn_rules,
                                   labeled, alexa, month)
        except Exception:  # noqa: BLE001 - its rows fail below
            traceback.print_exc()
            continue
        counts["training_instances"] += len(training)
        counts["rules_learned"] += len(rules)
    hits0 = counter_value("rules.cache_hits")
    decisions0 = counter_value("classifier.decisions")
    for month in months:
        outcome.attempt(len(DEFAULT_TAUS))
        try:
            pair = call(tracer, "core.month_pair", evaluate_month_pair,
                        labeled, alexa, month)
        except Exception:  # noqa: BLE001 - every tau row of it fails
            traceback.print_exc()
            outcome.fail(len(DEFAULT_TAUS), f"month {month} raised")
            continue
        for run in pair:
            row = run.evaluation
            label = f"{row.train_month}->{row.test_month} tau={row.tau}"
            counts["unknown_total"] += row.unknown_total
            counts["unknown_rejected"] += row.unknown_rejected
            decided = (row.unknown_malicious + row.unknown_benign
                       + row.unknown_rejected)
            if run.extraction.selected_rules == 0:
                outcome.fail(1, f"{label}: zero rules selected",
                             wrong_output=False)
            elif decided > row.unknown_total:
                outcome.fail(1, f"{label}: {decided} unknown decisions "
                                f"> {row.unknown_total} unknowns")
        runs.extend(pair)
    counts["memo_hits"] = counter_value("rules.cache_hits") - hits0
    counts["rows"] = counter_value("classifier.decisions") - decisions0
    evaluation = FullEvaluation(runs=runs)
    texts = {
        "table_xvi": call(tracer, "reporting.render", render_table_xvi,
                          evaluation),
        "table_xvii": call(tracer, "reporting.render", render_table_xvii,
                           evaluation),
    }
    counts["digest"] = sha256_texts(texts)
    return counts


# ----------------------------------------------------------------------
# stream_ingest
# ----------------------------------------------------------------------


def check_phase(directory: Path, report, batch_digest: str, records: int,
                outcome: Outcome, phase: str) -> None:
    """Account one ingest phase's ``records`` offered operations.

    All of them fail when the committed digest differs from the batch
    digest or a strict reload of the store raises; otherwise shed and
    poisoned records are the failures.
    """
    from repro.telemetry.store import load_dataset

    outcome.attempt(records)
    if report.content_digest != batch_digest:
        outcome.fail(records, f"{phase}: committed digest "
                              f"{report.content_digest[:12]} != batch "
                              f"{batch_digest[:12]}")
        return
    try:
        load_dataset(directory, strict=True)
    except Exception as exc:  # noqa: BLE001 - any reload fault fails the phase
        outcome.fail(records, f"{phase}: strict reload raised "
                              f"{type(exc).__name__}: {exc}")
        return
    lost = report.shed + report.poisoned
    if lost:
        outcome.fail(lost, f"{phase}: {report.shed} shed, "
                           f"{report.poisoned} poisoned")


def _trace_service(tracer: Tracer, service) -> None:
    """Span the per-event filter and the store calls of one service."""
    from repro.telemetry.store import CHECKPOINT_FILE

    checkpoint = service.session.directory / CHECKPOINT_FILE

    def after_append(part, span: Span) -> None:
        if part is not None:
            span.set_attribute("part_bytes", part.bytes)
            span.set_attribute("checkpoint_bytes", checkpoint.stat().st_size)

    wrap(tracer, service.collector, "submit", "telemetry.central_filter")
    wrap(tracer, service.session, "append_events", "store.append",
         after=after_append)
    wrap(tracer, service.session, "commit", "store.commit")


def build_stream_inputs(config, tracer: Tracer) -> Dict[str, Any]:
    """World -> edge-filtered wire records, metadata maps, batch digest.

    The world itself is dropped before the timed phases: kept alive, its
    objects lengthen every GC pause during ingest.
    """
    from repro.serve import LoadGenerator
    from repro.synth.world import World

    world = call(tracer, "synth.generate", World, config, jobs=1)
    corpus = world.corpus
    records = list(LoadGenerator(corpus.events, agents=AGENTS).merged_stream())
    dataset = call(tracer, "telemetry.collect", world.collect)
    stats = world.filter_stats
    inputs = {
        "records": records,
        "files": corpus.file_records(),
        "processes": corpus.process_records(),
        "batch_digest": dataset.content_digest(),
        "raw_events": len(corpus.events),
        "reported_frac": stats.reported / stats.observed,
    }
    del world, corpus, dataset
    gc.collect()
    return inputs


def paced_phase(service, records: List[Dict[str, Any]],
                rate: float) -> Dict[str, Any]:
    """Open loop: send every record at ``rate``/s into a started service.

    Each reported event's latency runs from its record's scheduled send
    to the return of the ``append_events`` call that made it durable.
    The k-th call of the central filter is the k-th record sent (nothing
    is poisoned and a blocking queue sheds nothing), which ties events
    back to their schedule without touching the records.
    """
    interval = 1.0 / rate
    start = time.monotonic() + 0.05
    sequence = itertools.count()
    accepted_due: List[float] = []
    latencies: List[float] = []
    appended = 0
    submit_filter = service.collector.submit
    append = service.session.append_events

    def timed_filter(event, *args, **kwargs):
        due = start + next(sequence) * interval
        reported = submit_filter(event, *args, **kwargs)
        if reported:
            accepted_due.append(due)
        return reported

    def timed_append(events):
        nonlocal appended
        batch = list(events)
        part = append(batch)
        done = time.monotonic()
        for due in accepted_due[appended:appended + len(batch)]:
            latencies.append(done - due)
        appended += len(batch)
        return part

    service.collector.submit = timed_filter
    service.session.append_events = timed_append
    lateness: List[float] = []
    blocked = 0.0
    threads = 0
    service.start()
    try:
        for index, record in enumerate(records):
            due = start + index * interval
            now = time.monotonic()
            if now < due:
                time.sleep(due - now)
                now = time.monotonic()
            lateness.append(now - due)
            service.submit(record)
            blocked += time.monotonic() - now
            if index == len(records) // 2:
                threads = threads_now()
    finally:
        report = service.join(timeout=120.0)
    return {
        "report": report,
        "latency_ms": [seconds * 1000.0 for seconds in latencies],
        "late_p99_ms": percentile(lateness, 0.99) * 1000.0,
        "submit_blocked_s": blocked,
        "threads": threads,
    }


def run_stream_ingest(config, tracer: Tracer, gc_clock: GcClock,
                      paced: bool = True) -> Dict[str, Any]:
    """Inline ingest passes (throughput), then, with ``paced``, one paced
    open-loop ingest (latency)."""
    from repro.serve import IngestService

    inputs = build_stream_inputs(config, tracer)
    records = inputs["records"]
    files, processes = inputs["files"], inputs["processes"]
    batch_digest = inputs["batch_digest"]
    work = OUT_DIR / "stores" / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    outcome = Outcome()
    phases: List[Timed] = []
    digests: Dict[str, str] = {}
    try:
        for index in range(repeats("stream_ingest", tracer)):
            store = work / f"inline-{index}"
            with Timed(gc_clock) as inline:
                service = IngestService(store, files, processes)
                _trace_service(tracer, service)
                inline_report = call(tracer, "serve.run_inline",
                                     service.run_inline, records)
            phases.append(inline)
            check_phase(store, inline_report, batch_digest, len(records),
                        outcome, "inline")
            digests["inline_content_digest"] = inline_report.content_digest
            shutil.rmtree(store)
            del service
            gc.collect()
        if paced:
            gc_before = gc_clock.paused
            paced_service = IngestService(work / "paced", files, processes)
            paced_run = paced_phase(paced_service, records, OFFERED_RATE)
            paced_report = paced_run["report"]
            gc_pause = gc_clock.paused - gc_before
            check_phase(work / "paced", paced_report, batch_digest,
                        len(records), outcome, "paced")
            digests["paced_content_digest"] = paced_report.content_digest
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "timed": [phase.summary() for phase in phases],
        "first_timed": phases[0],
        "events": len(records),
        "outcome": outcome,
        "digests": digests,
        "offered_rate": OFFERED_RATE,
    }
    if paced:
        latency = paced_run["latency_ms"]
        result["info"] = {"threads": paced_run["threads"]}
        result["latency"] = {
            "p50_ms": percentile(latency, 0.50),
            "p99_ms": percentile(latency, 0.99),
            "samples": len(latency),
        }
        result["paced"] = {
            "serve.mean_batch": (paced_report.reported / paced_report.batches
                                 if paced_report.batches else 0.0),
            "serve.queue_max_depth": paced_report.queue_max_depth,
            "serve.submit_blocked_s": paced_run["submit_blocked_s"],
            "loadgen.late_p99_ms": paced_run["late_p99_ms"],
            "serve.report_p99_ms": paced_report.p99_latency_ms,
            "serve.shed": inline_report.shed + paced_report.shed,
            "serve.poisoned": inline_report.poisoned + paced_report.poisoned,
            "runtime.gc_pause_s": gc_pause,
        }
    if tracer.enabled:
        appends = named(tracer, "store.append")
        layers = {
            "synth.generate_s": total(tracer, "synth.generate"),
            "synth.raw_events": inputs["raw_events"],
            "telemetry.collect_s": total(tracer, "telemetry.collect"),
            "telemetry.reported_frac": inputs["reported_frac"],
            "telemetry.central_filter_s": total(
                tracer, "telemetry.central_filter"),
            "store.append_s": total(tracer, "store.append"),
            "store.appends": len(appends),
            "store.part_bytes": sum(span.attributes.get("part_bytes", 0)
                                    for span in appends),
            "store.checkpoint_bytes": sum(
                span.attributes.get("checkpoint_bytes", 0)
                for span in appends),
            "store.commit_s": total(tracer, "store.commit"),
        }
        layer_summary(tracer, inline, layers)
        result["layers"] = layers
    return result


WORKLOADS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "paper_tables": run_paper_tables,
    "stream_ingest": run_stream_ingest,
}


def repetition(workload: str, seed: int, spans_out: Optional[Path],
               spawned_at: float, paced: bool = False) -> Dict[str, Any]:
    """Run one repetition in this interpreter and return its result.

    Set-up time is the CPU time this interpreter used before its first
    timed pass (``setup_s``), and the wall-clock time from
    ``spawned_at``, the parent's ``time.monotonic()`` when it started
    this interpreter, to that pass (``setup_wall_s``).  With
    ``spans_out`` the repetition is traced and its spans are written
    there at the end.  ``paced`` adds ``stream_ingest``'s paced phase.
    """
    from repro.pipeline import clear_all_caches
    from repro.synth.cache import GENERATOR_VERSION
    from repro.synth.world import WorldConfig

    clear_all_caches()
    trace = spans_out is not None
    tracer = Tracer(enabled=trace)
    gc_clock = GcClock()
    config = WorldConfig(seed=seed, scale=SCALES[workload])
    if workload == "stream_ingest":
        result = run_stream_ingest(config, tracer, gc_clock, paced=paced)
    else:
        result = WORKLOADS[workload](config, tracer, gc_clock)
    outcome: Outcome = result.pop("outcome")
    first: Timed = result.pop("first_timed")
    result.update(
        workload=workload,
        seed=seed,
        scale=config.scale,
        traced=trace,
        setup_s=first.cpu_start,
        setup_wall_s=first.start - spawned_at,
        attempted=outcome.attempted,
        failed=outcome.failed,
        reasons=outcome.reasons,
        integrity_ok=outcome.integrity_ok,
        generator_version=GENERATOR_VERSION,
    )
    if trace:
        dump_spans(tracer, spans_out)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--spans-out", type=Path, default=None,
                        help="trace this repetition; write its spans here")
    parser.add_argument("--paced", action="store_true",
                        help="stream_ingest: also run the paced phase")
    args = parser.parse_args(argv)
    result = repetition(args.workload, args.seed, args.spans_out,
                        args.spawned_at, args.paced)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

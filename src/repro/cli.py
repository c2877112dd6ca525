"""Command-line interface.

Twelve subcommands cover the common workflows::

    python -m repro.cli export   --scale 0.01 --out store/ --compress
    python -m repro.cli import   store/
    python -m repro.cli report   --scale 0.01 --experiment table1 fig5
    python -m repro.cli report   --all --scale 1.0 --resources
    python -m repro.cli rules    --scale 0.01 --train-month 0 --tau 0.001
    python -m repro.cli evaluate --scale 0.01 --out results/
    python -m repro.cli run      --scale 0.01 --trace --metrics-out m.json
    python -m repro.cli stats    --scale 0.01
    python -m repro.cli validate --scale 0.02 --seeds 3 \
        --report-out fidelity_report.json
    python -m repro.cli profile  --out run.collapsed run --scale 0.01
    python -m repro.cli bench    --check --quick
    python -m repro.cli serve    --scale 0.01 --out serve-store/ \
        --agents 4 --poison-every 1000

``export`` writes the telemetry corpus as a versioned, checksummed
dataset store (:mod:`repro.telemetry.store` -- optionally gzip-compressed)
plus its ground truth (``labels.jsonl``), and ``import`` reads a store
back with full verification (or ``--lenient`` quarantining), exiting
non-zero on any integrity fault or a missing manifest; ``report``
renders any subset of the paper's tables/figures; ``rules`` prints the
learned human-readable rules for one training month; ``evaluate`` runs
the full Tables XVI/XVII experiment; ``run`` executes the whole pipeline
once (generate, collect, label, learn, evaluate) and is the natural
companion of the observability flags; ``stats`` prints the span tree
and metrics snapshot for a run; ``validate`` is the statistical
fidelity gate (:mod:`repro.validation`) -- it sweeps worlds across
seeds, tests every calibration target, prints the verdict table,
optionally writes the machine-readable report, and exits non-zero when
the gate fails; ``profile`` wraps any other subcommand in the sampling
profiler (:mod:`repro.obs.profile`) -- the top-N self-time table goes
to stderr and ``--out PATH`` also writes collapsed flamegraph stacks;
``bench`` runs the registered perf benches, appends to the BENCH
trajectory and -- with ``--check`` -- gates the run against the
trajectory median (:mod:`repro.obs.regress`); ``serve`` streams the
corpus through the ingestion service, optionally under an injected
fault schedule, and fails unless the streamed store matches batch
collection; ``avtype`` is the standalone behavior-type extractor.

Every world-building subcommand accepts ``--trace`` (print the span
tree after the run), ``--resources`` (per-span RSS/CPU/GC attributes
plus ``proc.*`` metrics, see :mod:`repro.obs.resources`) and
``--metrics-out PATH`` (write the metrics snapshot -- JSON, or
Prometheus text for ``.prom``/``.txt`` paths -- plus a
``<stem>.manifest.json`` run manifest alongside it).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from . import reporting
from .core.evaluation import DEFAULT_TAUS, full_evaluation, learn_rules
from .obs import manifest as obs_manifest
from .obs import metrics as obs_metrics
from .obs import profile as obs_profile
from .obs import resources as obs_resources
from .obs import trace as obs_trace
from .pipeline import Session, build_session
from .synth.world import WorldConfig
from .telemetry import store as telemetry_store
from .telemetry.events import NUM_MONTHS

#: Experiment name -> renderer taking (labeled) or (labeled, alexa), in
#: the order ``report`` prints them: the paper's tables, its figures,
#: then the in-text statistics of Sections II-C, IV-C and VI-A.
_EXPERIMENTS: Dict[str, str] = {
    "table1": "render_table_i",
    "table2": "render_table_ii",
    "table3": "render_table_iii",
    "table4": "render_table_iv",
    "table5": "render_table_v",
    "table6": "render_table_vi",
    "table7": "render_table_vii",
    "table8": "render_table_viii",
    "table9": "render_table_ix",
    "table10": "render_table_x",
    "table11": "render_table_xi",
    "table12": "render_table_xii",
    "table13": "render_table_xiii",
    "table14": "render_table_xiv",
    "fig1": "render_fig_1",
    "fig2": "render_fig_2",
    "fig3": "render_fig_3",
    "fig4": "render_fig_4",
    "fig5": "render_fig_5",
    "fig6": "render_fig_6",
    "type_resolution": "render_type_resolution",
    "packers": "render_packers",
    "unknowns": "render_unknown_characteristics",
}

_NEEDS_ALEXA = {"fig3", "fig6"}


def _fraction(text: str) -> float:
    """argparse type: a float in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _p_floor(text: str) -> float:
    """argparse type: a p-value floor in (0, 1]; at or below 0 every
    fidelity target would pass."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _month(text: str) -> int:
    """argparse type: a 0-based collection month."""
    value = int(text)
    if not 0 <= value < NUM_MONTHS:
        raise argparse.ArgumentTypeError(
            f"must be in [0, {NUM_MONTHS - 1}], got {text}"
        )
    return value


def _add_world_arguments(parser: argparse.ArgumentParser,
                         cache: bool = True) -> None:
    """The world flags; ``cache=False`` omits ``--no-cache`` for commands
    that never read the world cache."""
    parser.add_argument("--seed", type=int, default=7,
                        help="world seed (default 7)")
    parser.add_argument("--scale", type=float, default=0.01,
                        help="corpus scale relative to the paper (default "
                             "0.01; values > 1 oversample the paper)")
    parser.add_argument("--shards", type=int, default=8,
                        help="deterministic generation shards; part of the "
                             "world's identity (default 8)")
    if cache:
        parser.add_argument("--no-cache", action="store_true",
                            help="bypass the world/session cache and always "
                                 "regenerate")
    parser.add_argument("--trace", action="store_true",
                        help="record tracing spans and print the span tree "
                             "after the run")
    parser.add_argument("--resources", action="store_true",
                        help="account RSS/CPU/GC per span (attributes on "
                             "every traced span, plus proc.* metrics)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the metrics snapshot here (JSON, or "
                             "Prometheus text for .prom/.txt paths) plus a "
                             "<stem>.manifest.json run manifest alongside")


def _world_config(args: argparse.Namespace) -> Optional[WorldConfig]:
    """The world config an argparse namespace describes, if any."""
    if not hasattr(args, "seed"):
        return None
    return WorldConfig(seed=args.seed, scale=args.scale, shards=args.shards)


def _export_observability(args: argparse.Namespace,
                          wall_seconds: float) -> None:
    """Post-command observability output: metrics + manifest + span tree."""
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        out = Path(metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        registry = obs_metrics.get_registry()
        if out.suffix in {".prom", ".txt"}:
            out.write_text(registry.to_prometheus(), encoding="utf-8")
        else:
            out.write_text(registry.to_json() + "\n", encoding="utf-8")
        manifest = obs_manifest.build_manifest(
            command=args.command,
            config=_world_config(args),
            wall_seconds=wall_seconds,
        )
        manifest_path = manifest.write(
            out.with_name(out.stem + ".manifest.json")
        )
        print(
            f"wrote metrics snapshot to {out} and run manifest to "
            f"{manifest_path}",
            file=sys.stderr,
        )
    if getattr(args, "trace", False):
        tree = obs_trace.render_tree()
        if tree:
            print("\n# trace")
            print(tree)


def _session(args: argparse.Namespace) -> Session:
    config = WorldConfig(seed=args.seed, scale=args.scale, shards=args.shards)
    print(
        f"building synthetic world (seed={config.seed}, "
        f"scale={config.scale}, shards={config.shards}) ...",
        file=sys.stderr,
    )
    return build_session(config, cache=not args.no_cache)


def _cmd_export(args: argparse.Namespace) -> int:
    """Export the corpus as a verified dataset store plus its labels."""
    session = _session(args)
    path = telemetry_store.save_dataset(
        session.dataset, args.out, compress=args.compress
    )
    labeled = session.labeled
    with open(path / telemetry_store.LABELS_FILE, "w",
              encoding="utf-8") as handle:
        for sha1, label in sorted(labeled.file_labels.items()):
            extraction = labeled.file_types.get(sha1)
            record = {
                "sha1": sha1,
                "label": label.value,
                "type": extraction.mtype.value if extraction else None,
                "family": labeled.file_families.get(sha1),
            }
            handle.write(json.dumps(record) + "\n")
    manifest = telemetry_store.read_manifest(path)
    print(
        f"wrote {manifest.counts['events']} events, "
        f"{manifest.counts['files']} files, "
        f"{manifest.counts['processes']} processes in "
        f"{len(manifest.parts)} part(s) to {path}/"
    )
    print(f"content digest: {manifest.content_digest}")
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    """Re-import a dataset store, verifying (or quarantining) faults."""
    stats = telemetry_store.ReadStats()
    strict = not args.lenient
    try:
        dataset = telemetry_store.load_dataset(
            args.directory, strict=strict, stats=stats
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"import failed: {exc}", file=sys.stderr)
        return 1
    manifest = telemetry_store.read_manifest(args.directory)
    print(
        f"imported {len(dataset.events)} events, {len(dataset.files)} "
        f"files, {len(dataset.processes)} processes "
        f"({stats.bytes_read} bytes read)"
    )
    digest = dataset.content_digest()
    verdict = "OK" if digest == manifest.content_digest else "MISMATCH"
    print(f"content digest: {digest} [{verdict} vs manifest]")
    if not strict:
        print(
            f"quarantined rows: {stats.rows_quarantined}, duplicates: "
            f"{stats.rows_duplicate}, checksum failures: "
            f"{stats.checksum_failures}"
        )
    return 0


def _render(session: Session, name: str) -> str:
    """The text of one ``report`` experiment for ``session``."""
    renderer: Callable = getattr(reporting, _EXPERIMENTS[name])
    if name in _NEEDS_ALEXA:
        return renderer(session.labeled, session.alexa)
    return renderer(session.labeled)


def _cmd_report(args: argparse.Namespace) -> int:
    if args.all_experiments and args.experiment:
        print("--all and --experiment are mutually exclusive",
              file=sys.stderr)
        return 2
    wanted: List[str] = args.experiment or list(_EXPERIMENTS)
    unknown = [name for name in wanted if name not in _EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; choose from "
            f"{', '.join(_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    session = _session(args)
    for name in wanted:
        print(_render(session, name))
        print()
    if args.csv_dir:
        paths = reporting.export_figure_csvs(
            session.labeled, session.alexa, args.csv_dir
        )
        print(
            f"wrote {len(paths)} figure CSVs to {args.csv_dir}/",
            file=sys.stderr,
        )
    return 0


def _cmd_avtype(args: argparse.Namespace) -> int:
    """Behavior-type extraction over JSONL detections (the paper's open
    source AVType tool, Section II-C)."""
    from .labeling.avtype import TypeExtractor

    if args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = Path(args.input).read_text(encoding="utf-8").splitlines()
    extractor = TypeExtractor()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            detections = record.get("detections", record)
        except (json.JSONDecodeError, AttributeError):
            print(f"line {number}: malformed JSON", file=sys.stderr)
            return 2
        result = extractor.extract(detections)
        print(
            json.dumps(
                {
                    "sha1": record.get("sha1") if isinstance(record, dict)
                    else None,
                    "type": result.mtype.value,
                    "resolution": result.resolution,
                }
            )
        )
    fractions = extractor.resolution_fractions
    print(
        "resolutions: "
        + ", ".join(f"{k}={v:.2f}" for k, v in fractions.items()),
        file=sys.stderr,
    )
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    session = _session(args)
    rules, training = learn_rules(session.labeled, session.alexa,
                                  args.train_month)
    selected = rules.select(args.tau, min_coverage=args.min_coverage)
    print(
        f"# {len(training)} training files -> {len(rules)} rules; "
        f"{len(selected)} selected at tau={args.tau} "
        f"min_coverage={args.min_coverage}"
    )
    for rule in sorted(selected.rules, key=lambda r: -r.coverage):
        print(f"{rule.render()}  # coverage={rule.coverage} "
              f"errors={rule.errors}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    session = _session(args)
    evaluation = full_evaluation(
        session.labeled, session.alexa,
        taus=DEFAULT_TAUS if args.tau is None else tuple(args.tau),
    )
    xvi = reporting.render_table_xvi(evaluation)
    xvii = reporting.render_table_xvii(evaluation)
    print(xvi)
    print()
    print(xvii)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "table_xvi.txt").write_text(xvi + "\n", encoding="utf-8")
        (out / "table_xvii.txt").write_text(xvii + "\n", encoding="utf-8")
        print(f"\nwrote results to {out}/", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """End-to-end pipeline run: generate, collect, label, learn, evaluate.

    The observability showcase: with ``--trace`` the printed span tree
    covers every stage — every generation shard and every month pair
    included — and with ``--metrics-out`` the metrics snapshot and run
    manifest land next to each other.
    """
    session = _session(args)
    rules, training = learn_rules(session.labeled, session.alexa,
                                  args.train_month)
    selected = rules.select(args.tau)
    evaluation = full_evaluation(
        session.labeled, session.alexa, taus=(args.tau,),
    )
    labels = session.labeled.label_counts()
    print(f"events reported:  {len(session.dataset.events)}")
    print(f"files observed:   {len(session.dataset.files)}")
    print(
        "labels:           "
        + ", ".join(
            f"{label.value}={count}" for label, count in sorted(
                labels.items(), key=lambda item: item[0].value
            )
        )
    )
    print(f"training files:   {len(training.instances)} "
          f"(month {args.train_month})")
    print(f"rules learned:    {len(rules)} "
          f"({len(selected)} selected at tau={args.tau})")
    expansion = evaluation.label_expansion(args.tau)
    print(f"month pairs:      {len(evaluation.runs)} evaluated at "
          f"tau={args.tau}; labeled "
          f"{expansion['labeled_unknowns']:.0f} unknowns "
          f"({expansion['expansion_pct']:.0f}% ground-truth expansion)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Statistical fidelity gate (see :mod:`repro.validation`)."""
    from .validation import run_seed_sweep

    print(
        f"fidelity sweep: {args.seeds} seed(s) from {args.seed} at "
        f"scale={args.scale} ...",
        file=sys.stderr,
    )
    report = run_seed_sweep(
        scale=args.scale,
        seeds=args.seeds,
        base_seed=args.seed,
        shards=args.shards,
        p_floor=args.p_floor,
        quantile=args.quantile,
    )
    print(report.render())
    if args.report_out:
        path = report.write(Path(args.report_out))
        print(f"wrote fidelity report to {path}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    """Observability report: run the pipeline, print spans + metrics."""
    session = _session(args)
    rules, _ = learn_rules(session.labeled, session.alexa, args.train_month)
    print(f"# run: {len(session.dataset.events)} events, "
          f"{len(session.dataset.files)} files, {len(rules)} rules")
    print("\n# metrics")
    snapshot = obs_metrics.get_registry().snapshot()
    for name, value in sorted(snapshot["counters"].items()):
        print(f"{name:<40s} {value:g}")
    for name, value in sorted(snapshot["gauges"].items()):
        print(f"{name:<40s} {value:g}")
    for name, hist in sorted(snapshot["histograms"].items()):
        print(f"{name:<40s} count={hist['count']} sum={hist['sum']:.3f}")
    # The span tree itself is printed by main(): stats forces --trace on.
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run any other subcommand under the sampling profiler.

    The top self-time table goes to stderr; with ``--out`` the collapsed
    (flamegraph-ready) stacks are written there too.
    """
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("profile: missing command to profile, e.g. "
              "`repro profile run --scale 0.01`", file=sys.stderr)
        return 2
    if rest[0] == "profile":
        print("profile: cannot profile the profiler", file=sys.stderr)
        return 2
    inner = build_parser().parse_args(rest)
    profiler = obs_profile.SamplingProfiler(hz=args.hz)
    profiler.start()
    try:
        status = _dispatch(inner)
    finally:
        profiler.stop()
    if args.out:
        path = profiler.write_collapsed(Path(args.out))
        print(f"wrote {profiler.sample_count} profile samples "
              f"(collapsed stacks) to {path}", file=sys.stderr)
    print("\n# profile (top self-time)", file=sys.stderr)
    print(profiler.render_top(), file=sys.stderr)
    return status


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run registered benches; record the trajectory; gate with --check."""
    from .obs import regress

    try:
        tolerances = regress.parse_tolerances(args.tolerance or [])
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    names = args.bench or sorted(regress.BENCHES)
    trajectory = Path(args.trajectory)
    history = regress.load_trajectory(trajectory)
    try:
        results = regress.run_benches(names, scale=args.scale,
                                      quick=args.quick)
    except KeyError as exc:
        print(f"bench: {exc.args[0]}", file=sys.stderr)
        return 2
    entries = [regress.entry_from_result(result) for result in results]
    print(f"{'bench':<20s} {'wall_s':>9s} {'peak_rss_kb':>12s} "
          f"{'throughput':>14s}")
    for result in results:
        throughput = (
            f"{result.throughput:,.0f} {result.throughput_units}"
            if result.throughput else "-"
        )
        print(f"{result.name:<20s} {result.wall_seconds:9.3f} "
              f"{result.peak_rss_kb:12,.0f} {throughput:>14s}")
    violations = []
    if args.check:
        for entry in entries:
            violations.extend(
                regress.check_entry(history, entry, tolerances)
            )
    if not args.no_append:
        regress.append_entries(trajectory, entries)
        print(f"appended {len(entries)} entries to {trajectory} "
              f"({len(history) + len(entries)} total)", file=sys.stderr)
    if violations:
        print("\nregression gate: FAIL", file=sys.stderr)
        for violation in violations:
            print(f"  {violation.render()}", file=sys.stderr)
        return 1
    if args.check:
        matched = sum(
            1 for entry in entries
            if any(regress.match_key(e) == regress.match_key(entry)
                   for e in history)
        )
        print(f"regression gate: OK ({matched}/{len(entries)} benches had "
              f"trajectory history to compare against)", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Stream a corpus through the ingestion service; verify equivalence."""
    from .pipeline import stream_session
    from .serve import FaultSchedule, InjectedCrash, QueuePolicy, ServeConfig

    serve_config = ServeConfig(
        queue_capacity=args.queue_capacity,
        queue_policy=QueuePolicy(args.queue_policy),
        batch_max=args.batch_max,
        flush_interval=args.flush_interval,
        compress=args.compress,
    )
    faults = None
    if args.poison_every or args.sigterm_after or args.crash_after_parts:
        faults = FaultSchedule(
            crash_after_parts=args.crash_after_parts,
            poison_every=args.poison_every,
            sigterm_after_events=args.sigterm_after,
        )
    try:
        outcome = stream_session(
            _world_config(args),
            args.out,
            agents=args.agents,
            serve_config=serve_config,
            faults=faults,
            threaded=not args.inline,
            rate_per_sec=args.rate,
            resume=args.resume,
            cache=not args.no_cache,
        )
    except InjectedCrash as exc:
        print(f"injected crash: {exc}", file=sys.stderr)
        print(f"store checkpoint left in {args.out}; rerun with --resume "
              f"to recover and finish the stream", file=sys.stderr)
        return 1
    except (FileNotFoundError, telemetry_store.StoreError) as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    ingest = outcome.ingest
    load = outcome.load
    print(f"agents={load.agents} produced={load.produced} "
          f"poison_injected={load.poison_injected} "
          f"stopped_early={load.stopped_early}")
    print(f"ingested={ingest.ingested} reported={ingest.reported} "
          f"poisoned={ingest.poisoned} shed={ingest.shed} "
          f"batches={ingest.batches} resumed_from={ingest.resumed_from}")
    print(f"throughput={ingest.events_per_sec:,.0f} events/s  "
          f"p99_ingest_latency={ingest.p99_latency_ms:.2f} ms  "
          f"queue_max_depth={ingest.queue_max_depth}")
    print(f"content_digest={ingest.content_digest[:16]}")
    if outcome.digest_match:
        print("equivalence: OK (streamed store digest == batch collect)")
        return 0
    if ingest.shed > 0 or load.stopped_early:
        print("equivalence: SKIPPED (run was lossy: shed events or an "
              "early stop); the oracle only covers lossless runs")
        return 0
    print("equivalence: FAIL (streamed store digest != batch collect)",
          file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Exploring the Long Tail of (Malicious) "
            "Software Downloads' (DSN 2017)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    export = commands.add_parser(
        "export",
        help="export the corpus as a checksummed dataset store "
             "(optionally compressed) plus its ground-truth labels.jsonl",
    )
    _add_world_arguments(export)
    export.add_argument("--out", required=True, help="store directory")
    export.add_argument("--compress", action="store_true",
                        help="gzip-compress every JSONL part")
    export.set_defaults(func=_cmd_export)

    import_ = commands.add_parser(
        "import",
        help="re-import a dataset store, verifying checksums and the "
             "content digest (exit 1 on any integrity fault)",
    )
    import_.add_argument("directory", help="store directory to import")
    import_.add_argument("--lenient", action="store_true",
                         help="quarantine malformed/corrupt rows instead "
                              "of failing fast")
    import_.add_argument("--trace", action="store_true",
                         help="record tracing spans and print the span "
                              "tree after the run")
    import_.add_argument("--metrics-out", metavar="PATH",
                         help="write the metrics snapshot here (JSON, or "
                              "Prometheus text for .prom/.txt paths) plus "
                              "a <stem>.manifest.json run manifest "
                              "alongside")
    import_.set_defaults(func=_cmd_import)

    report = commands.add_parser(
        "report", help="render paper tables/figures"
    )
    _add_world_arguments(report)
    report.add_argument(
        "--experiment", nargs="*", action="extend",
        help=f"experiments to render (default: all of "
             f"{', '.join(_EXPERIMENTS)}; repeatable)",
    )
    report.add_argument(
        "--all", action="store_true", dest="all_experiments",
        help="render every table and figure from one shared frame build "
             "(explicit form of the default; rejects --experiment)",
    )
    report.add_argument(
        "--csv-dir", help="also export figure data series as CSVs here"
    )
    report.set_defaults(func=_cmd_report)

    avtype = commands.add_parser(
        "avtype",
        help="extract behavior types from AV detections (JSONL in/out)",
    )
    avtype.add_argument(
        "input",
        help="JSONL file of {'sha1': ..., 'detections': {engine: label}} "
             "records, or '-' for stdin",
    )
    avtype.set_defaults(func=_cmd_avtype)

    rules = commands.add_parser(
        "rules", help="learn and print classification rules for one month"
    )
    _add_world_arguments(rules)
    rules.add_argument("--train-month", type=_month, default=0,
                       help="0-based training month (default 0 = January)")
    rules.add_argument("--tau", type=_fraction, default=0.001,
                       help="max rule training error rate (default 0.001)")
    rules.add_argument("--min-coverage", type=int, default=1,
                       help="min training coverage per rule (default 1)")
    rules.set_defaults(func=_cmd_rules)

    evaluate = commands.add_parser(
        "evaluate", help="run the Tables XVI/XVII monthly evaluation"
    )
    _add_world_arguments(evaluate)
    evaluate.add_argument("--tau", type=_fraction, nargs="+", action="extend",
                          help="error thresholds (default: 0.0 0.001; "
                               "repeatable)")
    evaluate.add_argument("--out", help="optional output directory")
    evaluate.set_defaults(func=_cmd_evaluate)

    run = commands.add_parser(
        "run",
        help="run the whole pipeline once (generate, collect, label, "
             "learn); pairs with --trace/--metrics-out",
    )
    _add_world_arguments(run)
    run.add_argument("--train-month", type=_month, default=0,
                     help="0-based training month (default 0 = January)")
    run.add_argument("--tau", type=_fraction, default=0.001,
                     help="max rule training error rate (default 0.001)")
    run.set_defaults(func=_cmd_run)

    validate = commands.add_parser(
        "validate",
        help="statistical fidelity gate: sweep seeds, test every "
             "calibration target, exit non-zero on failure",
    )
    _add_world_arguments(validate, cache=False)
    validate.add_argument("--seeds", type=int, default=3,
                          help="number of consecutive seeds to sweep, "
                               "starting at --seed (default 3)")
    validate.add_argument("--report-out", metavar="PATH",
                          help="write the machine-readable fidelity report "
                               "(JSON) here")
    validate.add_argument("--p-floor", type=_p_floor, default=0.01,
                          help="per-seed p-value floor below which a target "
                               "must fall back on its effect tolerance "
                               "(default 0.01)")
    validate.add_argument("--quantile", type=_fraction, default=0.5,
                          help="sweep aggregation quantile (default 0.5 = "
                               "median across seeds)")
    validate.set_defaults(func=_cmd_validate)

    stats = commands.add_parser(
        "stats",
        help="run the pipeline and print its span tree and metrics "
             "snapshot",
    )
    _add_world_arguments(stats)
    stats.add_argument("--train-month", type=_month, default=0,
                       help="0-based training month (default 0 = January)")
    stats.set_defaults(func=_cmd_stats, trace=True)

    profile = commands.add_parser(
        "profile",
        help="run another subcommand under the sampling profiler",
    )
    profile.add_argument("--hz", type=int, default=obs_profile.DEFAULT_HZ,
                         help=f"sampling rate (default "
                              f"{obs_profile.DEFAULT_HZ})")
    profile.add_argument("--out", metavar="PATH",
                         help="write collapsed (flamegraph-ready) stacks "
                              "here; without it only the top table prints")
    profile.add_argument("rest", nargs=argparse.REMAINDER,
                         help="the subcommand (and its arguments) to "
                              "profile, e.g. `run --scale 0.01`")
    profile.set_defaults(func=_cmd_profile)

    bench = commands.add_parser(
        "bench",
        help="run the registered perf benches, append to the BENCH "
             "trajectory and (with --check) gate against its median",
    )
    bench.add_argument("--bench", nargs="*", action="extend", metavar="NAME",
                       help="benches to run (default: all registered; "
                            "repeatable)")
    bench.add_argument("--scale", type=float, default=None,
                       help="corpus scale for the benches (default 0.01, "
                            "or 0.002 with --quick)")
    bench.add_argument("--quick", action="store_true",
                       help="CI-sized run at scale 0.002")
    bench.add_argument("--check", action="store_true",
                       help="gate this run against the trajectory median; "
                            "exit 1 on any violation")
    bench.add_argument("--trajectory", metavar="PATH",
                       default="benchmarks/output/BENCH_trajectory.json",
                       help="trajectory file (default "
                            "benchmarks/output/BENCH_trajectory.json)")
    bench.add_argument("--no-append", action="store_true",
                       help="measure (and gate) without recording this "
                            "run in the trajectory")
    bench.add_argument("--tolerance", action="append", metavar="METRIC=FRAC",
                       help="per-metric gate tolerance override, e.g. "
                            "wall_seconds=0.35 (repeatable)")
    bench.set_defaults(func=_cmd_bench)

    serve = commands.add_parser(
        "serve",
        help="stream the corpus through the ingestion service, optionally "
             "under injected faults (poison records, mid-batch crashes, "
             "SIGTERM), and verify digest equivalence with batch collect",
    )
    _add_world_arguments(serve)
    serve.add_argument("--out", default="serve-store",
                       help="store directory the service writes "
                            "(default serve-store)")
    serve.add_argument("--agents", type=int, default=4,
                       help="simulated machine agents at the edge "
                            "(default 4)")
    serve.add_argument("--batch-max", type=int, default=512,
                       help="events coalesced per store part (default 512)")
    serve.add_argument("--flush-interval", type=float, default=0.05,
                       help="seconds a partial batch may wait before "
                            "flushing (default 0.05)")
    serve.add_argument("--queue-capacity", type=int, default=4096,
                       help="bounded ingest queue depth (default 4096)")
    serve.add_argument("--queue-policy", choices=("block", "shed"),
                       default="block",
                       help="backpressure policy when the queue is full "
                            "(default block)")
    serve.add_argument("--compress", action="store_true",
                       help="gzip the store parts")
    serve.add_argument("--rate", type=float, default=None,
                       help="pace producers to this many events/sec "
                            "(default: unthrottled)")
    serve.add_argument("--inline", action="store_true",
                       help="consume on the caller's thread instead of the "
                            "queue + consumer thread (deterministic part "
                            "layout)")
    serve.add_argument("--resume", action="store_true",
                       help="resume a crashed run from the store's ingest "
                            "checkpoint")
    serve.add_argument("--poison-every", type=int, default=None,
                       metavar="N",
                       help="splice one undecodable record into the stream "
                            "every N events")
    serve.add_argument("--crash-after-parts", type=int, default=None,
                       metavar="N",
                       help="crash the writer after its Nth store part, "
                            "before the checkpoint lands")
    serve.add_argument("--sigterm-after", type=int, default=None,
                       metavar="N",
                       help="stop producing after N events, as if SIGTERM "
                            "arrived mid-stream")
    serve.set_defaults(func=_cmd_serve)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run one parsed command under its observability switches."""
    tracing = getattr(args, "trace", False)
    track_resources = getattr(args, "resources", False)
    if tracing:
        # Fresh tree per invocation: embedding callers (tests) may run
        # several commands in one process.
        obs_trace.reset()
        obs_trace.enable()
    if track_resources:
        obs_resources.enable()
    start = time.perf_counter()
    try:
        status = args.func(args)
        # Status 1 is a *verdict* (the validate gate failing), not a
        # usage error: its metrics and manifest still matter, e.g. for
        # CI archiving the artifacts of a failed fidelity run.
        if status in (0, 1):
            _export_observability(
                args, wall_seconds=time.perf_counter() - start
            )
    finally:
        if track_resources:
            obs_resources.disable()
        if tracing:
            obs_trace.disable()
    return status


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    return _dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

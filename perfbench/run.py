"""The repository benchmark: one workload, one seed, for a fixed time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_tables --seed 1 \\
        --seconds 60 --trace 0

Each repetition runs in a fresh interpreter (``perfbench/rep.py``) with
``PYTHONPATH=src``, one BLAS thread and a random hash seed.  Repetitions
repeat until ``--seconds`` is spent (at least two), and the run reports
their medians.  The gated times are CPU seconds of the repetition's
process; wall-clock times are printed beside them.  With ``--trace 0``
every repetition is untraced and the result holds the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` untraced and traced
repetitions alternate and the result holds the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
Every run also appends a record with its provenance, repetitions and
output digests to ``perfbench/out/results.jsonl``.

Exit codes: 0 after a result line, 2 when the run cannot start (no
``src/repro`` to benchmark, or ``REPRO_WORLD_CACHE`` set).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REP = BENCH_DIR / "rep.py"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("paper_tables", "stream_ingest")

#: Fewest repetitions a run makes, however long they take.
MIN_REPS = 2
#: A run starts no repetition that would end after this many seconds.
HARD_LIMIT_S = 165.0

#: Per-layer metrics that describe the paced ingest phase.  It runs in
#: a run's first repetition, which is untraced, so they come from there,
#: like ingest latency.  ``runtime.gc_pause_s`` is one of them on
#: ``stream_ingest`` only; ``paper_tables`` times it over its traced pass.
PACED_METRICS = (
    "serve.mean_batch", "serve.queue_max_depth", "serve.submit_blocked_s",
    "loadgen.late_p99_ms", "serve.report_p99_ms", "serve.shed",
    "serve.poisoned", "runtime.gc_pause_s",
)


def fail_to_start(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tree_sha256(directory: Path) -> Optional[str]:
    """Digest of every ``.py`` file under ``directory`` (path + bytes)."""
    if not directory.is_dir():
        return None
    hasher = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        hasher.update(str(path.relative_to(directory)).encode() + b"\0")
        hasher.update(path.read_bytes() + b"\0")
    return hasher.hexdigest()


def git_rev() -> Optional[str]:
    """HEAD of the checkout, or ``None`` when it is not a git checkout
    (never the rev of a repository that merely encloses it)."""
    if not (ROOT / ".git").exists():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.manifest import git_revision

    return git_revision(ROOT)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Hash randomisation stays on: digests must not depend on it.
    env.pop("PYTHONHASHSEED", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


def run_rep(workload: str, seed: int, spans_out: Optional[Path],
            paced: bool, timeout: float) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; its parsed result.

    ``spans_out`` traces the repetition and names its span file;
    ``paced`` adds ``stream_ingest``'s paced phase.
    """
    command = [sys.executable, str(REP), "--workload", workload,
               "--seed", str(seed)]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    if paced:
        command.append("--paced")
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {timeout:.0f} s",
                "duration": time.monotonic() - spawned_at}
    duration = time.monotonic() - spawned_at
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"repetition exited {done.returncode}",
                "duration": duration}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"error": "repetition printed no result", "duration": duration}
    result["duration"] = duration
    return result


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def passes(reps: List[Dict[str, Any]], key: str) -> List[float]:
    """``key`` (``cpu_s`` or ``wall_s``) of every timed pass of ``reps``."""
    return [phase[key] for r in reps for phase in r["timed"]]


def first_passes(reps: List[Dict[str, Any]], key: str) -> List[float]:
    """``key`` of the first timed pass of each repetition: the only pass
    a traced repetition makes, cold in its interpreter."""
    return [r["timed"][0][key] for r in reps]


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians of the user-visible metrics over untraced repetitions.

    Set-up is one sample per repetition; the timed metrics are one
    sample per timed pass, pooled over the repetitions.  The gated times
    are CPU seconds; their wall-clock counterparts (``setup_wall_s``,
    ``wall_s``, ``events_per_s``) are printed beside them.
    """
    phases = [(r["events"], phase) for r in reps for phase in r["timed"]]
    values = {
        "setup_s": median([r["setup_s"] for r in reps]),
        "cpu_s": median(passes(reps, "cpu_s")),
        "events_per_cpu_s": median([events / phase["cpu_s"]
                                    for events, phase in phases]),
        "peak_rss_mb": median([phase["peak_rss_mb"] for _, phase in phases]),
        "setup_wall_s": median([r["setup_wall_s"] for r in reps]),
        "wall_s": median(passes(reps, "wall_s")),
        "events_per_s": median([events / phase["wall_s"]
                                for events, phase in phases]),
    }
    latencies = [r["latency"] for r in reps if r.get("latency")]
    if latencies:
        values["ingest_p50_ms"] = median([l["p50_ms"] for l in latencies])
        values["ingest_p99_ms"] = median([l["p99_ms"] for l in latencies])
        values["ingest_samples"] = sum(l["samples"] for l in latencies)
    return values


def per_layer(names: List[str], untraced: List[Dict[str, Any]],
              traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians of the per-layer metrics; 0 for layers a workload skips."""
    e2e = end_to_end(untraced)
    paced = [r for r in untraced if r.get("paced")]
    values: Dict[str, float] = {}
    for name in names:
        if name == "bench.trace_overhead_frac":
            values[name] = (median(first_passes(traced, "cpu_s"))
                            / median(first_passes(untraced, "cpu_s")) - 1.0)
        elif name.startswith("serve.ingest_"):
            values[name] = e2e.get(name.replace("serve.", ""), 0.0)
        elif name in PACED_METRICS and paced:
            values[name] = median([r["paced"][name] for r in paced])
        else:
            values[name] = median([r["layers"].get(name, 0.0)
                                   for r in traced])
    return values


def print_summary(workload: str, args: argparse.Namespace,
                  provenance: Dict[str, Any], untraced: List[Dict[str, Any]],
                  traced: List[Dict[str, Any]], units: Dict[str, str],
                  attempted: int, failed: int,
                  digests: Dict[str, str]) -> None:
    e2e = end_to_end(untraced)
    print(f"workload {workload}  seed {args.seed}  "
          f"reps {len(untraced)} untraced + {len(traced)} traced, "
          f"{len(passes(untraced, 'cpu_s'))} untraced timed passes")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    rows = [("setup_s", "s"), ("cpu_s", "s"),
            ("events_per_cpu_s", "events/s"), ("peak_rss_mb", "MB"),
            ("setup_wall_s", "s"), ("wall_s", "s"),
            ("events_per_s", "events/s")]
    if "ingest_p50_ms" in e2e:
        rows += [("ingest_p50_ms", "ms"), ("ingest_p99_ms", "ms")]
    for name, unit in rows:
        print(f"  {name:<15} {e2e[name]:>14.4f} {unit}")
    if "ingest_samples" in e2e:
        print(f"  {'ingest_samples':<15} {e2e['ingest_samples']:>14d} count")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':<15} {frac:>14.4f} ratio ({failed}/{attempted})")
    info = untraced[0].get("info", {})
    if "targets" in info:
        print(f"fidelity {info['targets_passed']}/{info['targets']} targets "
              f"pass; fail verdicts: {info['targets_failed'] or 'none'}")
    print("digests " + json.dumps(digests, sort_keys=True))
    if not traced:
        return
    wall = median(passes(traced, "wall_s"))
    print(f"per-layer self time (traced wall_s {wall:.4f} s, untraced "
          f"wall_s {e2e['wall_s']:.4f} s)")
    layers = sorted({key for r in traced for key in r["layers"]
                     if key.endswith(".self_s")})
    for key in layers:
        seconds = median([r["layers"].get(key, 0.0) for r in traced])
        print(f"  {key[:-len('.self_s')]:<12} {seconds:>10.4f} s "
              f"{100.0 * seconds / wall:>6.1f}%")
    for name, value in per_layer(sorted(units), untraced, traced).items():
        if not name.endswith(".self_s"):
            print(f"  {name:<28} {value:>16.6g} {units[name]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_WORLD_CACHE"):
        return fail_to_start("REPRO_WORLD_CACHE is set; a warm world cache "
                             "would skip generation. Unset it.")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail_to_start(f"no program to benchmark at {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail_to_start(f"cannot read BENCHMARK.json: {exc}")
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}

    started = time.monotonic()
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    durations: List[float] = []
    errors: List[str] = []
    while True:
        elapsed = time.monotonic() - started
        reps = len(untraced) + len(traced)
        if elapsed + max(durations, default=0.0) > HARD_LIMIT_S:
            break
        if reps >= MIN_REPS and elapsed + median(durations) > args.seconds:
            break
        want_trace = bool(args.trace) and reps % 2 == 1
        spans_out = (OUT_DIR / f"spans-{args.workload}-seed{args.seed}-"
                     f"{len(traced)}.jsonl" if want_trace else None)
        # The paced phase runs once a run, in its first repetition.
        paced = args.workload == "stream_ingest" and reps == 0
        result = run_rep(args.workload, args.seed, spans_out, paced,
                         timeout=HARD_LIMIT_S + 10.0 - elapsed)
        durations.append(result["duration"])
        if "error" in result:
            errors.append(result["error"])
            break
        (traced if want_trace else untraced).append(result)
    if not untraced or (args.trace and not traced):
        errors.append("too few repetitions completed")
    for message in errors:
        print(f"perfbench: {message}", file=sys.stderr)

    done = untraced + traced
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    seen: Dict[str, set] = {}
    for r in done:
        for name, value in r["digests"].items():
            seen.setdefault(name, set()).add(value)
    consistent = all(len(values) == 1 for values in seen.values())
    correct = (not errors and consistent
               and all(r["integrity_ok"] for r in done))
    for r in done:
        for reason in r["reasons"]:
            print(f"perfbench: seed {args.seed}: {reason}", file=sys.stderr)
    if not consistent:
        print("perfbench: output digests differ between repetitions of one "
              "seed", file=sys.stderr)
    digests = ({name: next(iter(values))
                for name, values in sorted(seen.items())}
               if consistent else {})
    provenance = {
        "git_rev": git_rev(),
        "source_sha256": tree_sha256(ROOT / "src"),
        "bench_sha256": tree_sha256(BENCH_DIR),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "generator_version": done[0]["generator_version"] if done else None,
        "seed": args.seed,
        "scale": done[0]["scale"] if done else None,
        "offered_rate": done[0].get("offered_rate") if done else None,
    }

    metrics: Dict[str, Dict[str, Any]] = {}
    if untraced and (traced or not args.trace):
        values = (per_layer(list(units), untraced, traced) if args.trace
                  else end_to_end(untraced))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        print_summary(args.workload, args, provenance, untraced, traced,
                      units, attempted, failed, digests)

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance, "correct": correct,
        "attempted": attempted, "failed": failed, "digests": digests,
        "metrics": metrics, "errors": errors,
        "reps": [{key: r.get(key) for key in
                  ("traced", "setup_s", "setup_wall_s", "timed", "events",
                   "latency", "attempted", "failed", "digests", "info",
                   "duration")}
                 for r in done],
    }
    with (OUT_DIR / "results.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: run the benchmark over several seeds, report spreads.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload paper_tables --seeds 1-10,1
    python3 perfbench/steady.py                       # every workload

For each workload it runs ``perfbench/run.py --trace 0`` once per listed
seed, then prints, for each end-to-end metric of ``BENCHMARK.json``, the
median of the per-seed values and their spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as
a share of the median.  A spread above a third of the metric's bound is
marked ``noisy``, one above the bound ``FAIL``.  It also fails a run
that is not correct or has failed operations.

A seed listed again is run again, and that run only checks that its
output digests equal the first run's; it is left out of the spreads.
The default list, ``1-10,1``, ends with such a rerun.  Exits 1 on any
failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper_tables", "stream_ingest")


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
    digests = {}
    for line in lines:
        if line.startswith("digests "):
            digests = json.loads(line[len("digests "):])
    result = json.loads(lines[-1])
    result["digests"] = digests
    return result


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check(workload: str, seeds: List[int], spec: Dict) -> bool:
    ok = True
    values: Dict[str, List[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    digests: Dict[int, Dict] = {}
    for seed in seeds:
        result = run_once(workload, seed, spec["run_seconds"])
        line = " ".join(f"{name}={result['metrics'][name]['value']:.4f}"
                        for name in values)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {line}",
              flush=True)
        if not result["correct"] or result["failed"]:
            ok = False
        if seed in digests:
            same = digests[seed] == result["digests"]
            print(f"  {'ok' if same else 'FAIL'} digests of seed {seed} "
                  f"{'equal' if same else 'differ'} across runs")
            ok = ok and same
            continue
        digests[seed] = result["digests"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        share = spread(values[name])
        verdict = "ok"
        if share > bound:
            verdict, ok = "FAIL", False
        elif share > bound / 3:
            verdict = "noisy"
        print(f"  {name:<14} median {statistics.median(values[name]):>12.4f} "
              f"{metric['unit']:<9} spread {share:.4f} (bound {bound}) "
              f"{verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seeds", default="1-10,1",
                        help="seed list such as 1-10,1 or 1,2,5-7")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = [check(workload, parse_seeds(args.seeds), spec)
               for workload in args.workload or WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

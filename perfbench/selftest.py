"""Self-tests of the benchmark's failed-operation accounting.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Three cases, driven through the same code the workloads run (about
30 s in total):

* a committed event part corrupted after an inline ingest makes the
  phase count every offered record as failed (strict reload refuses
  the store), while the intact store counts none;
* a fidelity target whose extract is forced to return ``None``, which
  ``evaluate_session`` reports as ``skipped``, is counted as one failed
  operation of ``paper_tables`` and named in its failure reasons,
  without marking the rendered outputs wrong;
* a fidelity target forced to fail is counted in the repetition's
  ``targets_failed`` (the per-layer ``validation.targets_failed``) and
  not as a failed operation: one seed's ``fail`` verdict is a finding
  about that seed's world, not an operation that went wrong.

The two fidelity cases share one ``paper_tables`` pass, at the
workload's own scale and a seed that passes every target unforced, so
the forced two are the only targets that do not pass.  Exits 0 when
every case holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import rep  # noqa: E402  (sibling module)
from repro.obs.trace import Tracer  # noqa: E402

#: A small world keeps the store self-test quick; it does not depend on size.
SELFTEST_SCALE = 0.003


def corrupted_part_fails_phase() -> bool:
    from repro.serve import IngestService
    from repro.synth.world import WorldConfig

    config = WorldConfig(seed=1, scale=SELFTEST_SCALE)
    inputs = rep.build_stream_inputs(config, Tracer())
    records = inputs["records"]
    work = rep.OUT_DIR / "selftest-store"
    shutil.rmtree(work, ignore_errors=True)
    try:
        service = IngestService(work, inputs["files"], inputs["processes"])
        report = service.run_inline(records)
        intact = rep.Outcome()
        rep.check_phase(work, report, inputs["batch_digest"], len(records),
                        intact, "inline")
        part = work / "events-00000.jsonl"
        data = bytearray(part.read_bytes())
        middle = len(data) // 2
        data[middle:middle + 8] = b"XXXXXXXX"
        part.write_bytes(bytes(data))
        corrupted = rep.Outcome()
        rep.check_phase(work, report, inputs["batch_digest"], len(records),
                        corrupted, "inline")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = (intact.failed == 0 and intact.integrity_ok
          and corrupted.attempted == len(records)
          and corrupted.failed == len(records)
          and not corrupted.integrity_ok)
    print(f"{'ok' if ok else 'FAIL'}: corrupted event part -> "
          f"{corrupted.failed}/{corrupted.attempted} failed "
          f"(intact store: {intact.failed}); {corrupted.reasons}")
    return ok


def forced_targets_are_counted() -> list:
    from repro.core.evaluation import DEFAULT_TAUS
    from repro.synth.world import WorldConfig
    from repro.telemetry.events import NUM_MONTHS
    from repro.validation import TestOutcome, all_targets

    specs = list(all_targets())
    failing, skipped = specs[0], specs[1]

    def always_fails(session, rng):
        outcome = failing.extract(session, rng)
        if outcome is None:
            return TestOutcome(statistic=0.0, p_value=0.0, effect=1.0, n=1)
        return dataclasses.replace(outcome, p_value=0.0, effect=1.0)

    specs[0] = dataclasses.replace(failing, extract=always_fails)
    specs[1] = dataclasses.replace(skipped, extract=lambda session, rng: None)
    config = WorldConfig(seed=1, scale=rep.SCALES["paper_tables"])
    result = rep.run_paper_tables(config, Tracer(), rep.GcClock(),
                                  specs=tuple(specs))
    outcome, info = result["outcome"], result["info"]
    rows = (NUM_MONTHS - 1) * len(DEFAULT_TAUS)
    accounted = (outcome.attempted == len(rep.RENDERS) + len(specs) + rows
                 and outcome.integrity_ok
                 and info["targets_passed"] == len(specs) - 2)
    skip_ok = (accounted and outcome.failed == 1
               and f"fidelity targets skipped: {skipped.name}"
               in outcome.reasons)
    fail_ok = accounted and info["targets_failed"] == [failing.name]
    print(f"{'ok' if skip_ok else 'FAIL'}: forced skipped target "
          f"{skipped.name} -> {outcome.failed}/{outcome.attempted} failed; "
          f"{outcome.reasons}")
    print(f"{'ok' if fail_ok else 'FAIL'}: forced fail target {failing.name} "
          f"-> targets_failed {info['targets_failed']}, "
          f"{info['targets_passed']}/{len(specs)} pass")
    return [skip_ok, fail_ok]


def main() -> int:
    results = [corrupted_part_fails_phase(), *forced_targets_are_counted()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

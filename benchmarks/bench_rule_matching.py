"""Scalar vs columnar rule matching on one month-pair workload.

Times the exact batch-classification work a month-pair experiment does
-- TP/FP evaluation over the labeled February test set plus decisions
for February's unknown files, using January's selected rules -- once on
the scalar reference path (``evaluate_scalar`` and per-instance
``classify`` loops) and once on the columnar fast path (``evaluate`` and
``classify_batch``: interned codes, compiled masks, row dedup; see
:mod:`repro.core.columnar`).

Both paths must produce identical decisions (asserted here; the full
property suite lives in ``tests/core/test_columnar.py``); the payoff is
wall-time, recorded to ``benchmarks/output/BENCH_rule_matching.json``
with a run manifest alongside so CI can track the speedup trajectory.
At the default bench scale (0.02) the fast path must beat scalar by at
least 5x; smaller smoke scales only assert it is not slower.
"""

from __future__ import annotations

import time

from repro.core.classifier import ConflictPolicy, RuleBasedClassifier
from repro.core.dataset import TrainingSet, unknown_vectors
from repro.core.evaluation import learn_rules

from .common import assert_floor, write_bench_result
from .conftest import BENCH_SCALE

#: Selection threshold used by the Table XVII experiments.
TAU = 0.001

#: Timing repetitions; best-of is reported (steady-state comparison).
REPEATS = 3

#: Required fast-over-scalar speedup at the default scale.  Tiny smoke
#: corpora (CI) have too few rows to amortize encode+compile, so there
#: the bar is only "not slower".
MIN_SPEEDUP = 5.0 if BENCH_SCALE >= 0.02 else 1.0


def _best_of(callable_, repeats: int = REPEATS):
    """(best_seconds, last_result) over ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_rule_matching_speedup(session):
    labeled = session.labeled
    rules, training = learn_rules(labeled, session.alexa, 0)
    selected = rules.select(TAU)
    train_shas = {instance.sha1 for instance in training.instances}
    test_set = TrainingSet.from_labeled(
        labeled.month_slice(1), session.alexa, exclude_sha1s=train_shas
    )
    unknowns = unknown_vectors(
        labeled.month_slice(1), session.alexa,
        exclude_sha1s=set(labeled.month_slice(0).dataset.files),
    )
    unknown_rows = [vector.values for vector in unknowns.values()]

    classifier = RuleBasedClassifier(selected, ConflictPolicy.REJECT)

    def run_scalar():
        evaluation = classifier.evaluate_scalar(test_set.instances)
        decisions = [classifier.classify(row) for row in unknown_rows]
        return evaluation, decisions

    def run_fast():
        evaluation = classifier.evaluate(test_set.instances)
        decisions = classifier.classify_batch(unknown_rows)
        return evaluation, decisions

    scalar_seconds, (scalar_eval, scalar_decisions) = _best_of(run_scalar)
    fast_seconds, (fast_eval, fast_decisions) = _best_of(run_fast)

    # Correctness first: the speedup is meaningless unless both paths
    # agree decision for decision and count for count (fp_rules is a
    # set in scalar hash order vs deterministic rule order on the fast
    # path -- compare as sets).
    assert (
        scalar_eval.malicious_matched,
        scalar_eval.true_positives,
        scalar_eval.benign_matched,
        scalar_eval.false_positives,
        scalar_eval.rejected,
        scalar_eval.unmatched,
    ) == (
        fast_eval.malicious_matched,
        fast_eval.true_positives,
        fast_eval.benign_matched,
        fast_eval.false_positives,
        fast_eval.rejected,
        fast_eval.unmatched,
    )
    assert set(scalar_eval.fp_rules) == set(fast_eval.fp_rules)
    assert [d.label for d in scalar_decisions] == [
        d.label for d in fast_decisions
    ]
    assert [d.rejected for d in scalar_decisions] == [
        d.rejected for d in fast_decisions
    ]

    total_rows = len(test_set.instances) + len(unknown_rows)
    speedup = scalar_seconds / fast_seconds if fast_seconds else float("inf")
    payload = {
        "scale": BENCH_SCALE,
        "tau": TAU,
        "rules_selected": len(selected),
        "test_rows": len(test_set.instances),
        "unknown_rows": len(unknown_rows),
        "total_rows": total_rows,
        "unique_test_rows": len({i.values for i in test_set.instances}),
        "unique_unknown_rows": len(set(unknown_rows)),
        "scalar_seconds": scalar_seconds,
        "fast_seconds": fast_seconds,
        "speedup": speedup,
        "min_speedup_enforced": MIN_SPEEDUP,
        "repeats": REPEATS,
    }
    write_bench_result(
        "rule_matching",
        payload,
        config=session.config,
        wall_seconds=scalar_seconds + fast_seconds,
        manifest=True,
    )

    assert_floor(
        "columnar-over-scalar speedup", speedup, MIN_SPEEDUP, units="x",
        detail=f"scalar {scalar_seconds:.3f}s, fast {fast_seconds:.3f}s "
               f"at scale {BENCH_SCALE}",
    )

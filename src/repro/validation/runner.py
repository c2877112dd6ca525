"""Seed-sweep fidelity runner.

One seed is an anecdote: a marginal can drift outside tolerance on a
single unlucky world without the generator being miscalibrated, and a
flaky gate is worse than no gate.  :func:`run_seed_sweep` therefore
generates ``seeds`` worlds (consecutive seeds from ``base_seed``),
evaluates every calibration target on each, and aggregates with a
quantile rule (default: median of per-seed p-values/effects) so the
verdict is deterministic-in-expectation -- re-running the same sweep
always returns the identical report, and no single seed can flip it.
The seeds run one after another, and each seed's session is built
uncached and dropped once its targets are scored, so a sweep holds one
world at a time.

The sweep reports through :mod:`repro.obs`: per-target spans
(``validate.session``/``validate.target``), pass/fail/skip counters and
a ``fidelity.pass_fraction`` gauge, all of which land in the run
manifest the CLI writes next to the report.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs import trace
from ..synth.cache import GENERATOR_VERSION
from ..synth.world import WorldConfig
from .report import FidelityReport, TargetResult
from .targets import DEFAULT_P_FLOOR, TargetSpec, evaluate_session

__all__ = ["run_seed_sweep", "sweep_configs"]


def _score_seed(
    config: WorldConfig,
    p_floor: float,
    specs: Optional[Tuple[TargetSpec, ...]],
) -> List[TargetResult]:
    """Build one seed's session uncached and score it on the targets.

    The session is neither memoized nor returned, so it is garbage once
    this returns, before the next seed's world is generated.
    """
    from ..pipeline import build_session  # lazy: pipeline imports us

    session = build_session(config, cache=False)
    return evaluate_session(session, p_floor=p_floor, specs=specs)


#: Default aggregation quantile (median).
DEFAULT_QUANTILE = 0.5


def sweep_configs(
    scale: float,
    seeds: int,
    base_seed: int = 7,
    sigma: int = 20,
    shards: int = 8,
) -> List[WorldConfig]:
    """The world configs a sweep generates: consecutive seeds, one scale."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    return [
        WorldConfig(
            seed=base_seed + offset, scale=scale, sigma=sigma, shards=shards
        )
        for offset in range(seeds)
    ]


def run_seed_sweep(
    scale: float = 0.02,
    seeds: int = 3,
    base_seed: int = 7,
    sigma: int = 20,
    shards: int = 8,
    p_floor: float = DEFAULT_P_FLOOR,
    quantile: float = DEFAULT_QUANTILE,
    specs: Optional[Tuple[TargetSpec, ...]] = None,
) -> FidelityReport:
    """Generate ``seeds`` worlds and gate their marginals on the targets.

    The report is a pure function of the arguments: worlds are pure
    functions of their configs and evaluation is deterministic.  A
    ``p_floor`` outside ``(0, 1]`` (at or below zero every target
    passes) or a ``quantile`` outside ``[0, 1]`` raises
    :class:`ValueError` before any world is built.
    """
    if not 0.0 < p_floor <= 1.0:
        raise ValueError(f"p_floor must be in (0, 1], got {p_floor}")
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    configs = sweep_configs(
        scale=scale, seeds=seeds, base_seed=base_seed, sigma=sigma,
        shards=shards,
    )
    with trace.span(
        "validate.sweep", scale=scale, seeds=seeds, base_seed=base_seed
    ) as span:
        start = time.perf_counter()
        per_seed = [_score_seed(config, p_floor, specs) for config in configs]
        report = FidelityReport.aggregate(
            config={"scale": scale, "sigma": sigma, "shards": shards},
            seeds=[config.seed for config in configs],
            per_seed_results=per_seed,
            p_floor=p_floor,
            quantile=quantile,
            generator_version=GENERATOR_VERSION,
        )
        counts = report.counts()
        evaluated = counts["pass"] + counts["fail"]
        obs_metrics.counter(
            "fidelity.sweeps", "Fidelity seed sweeps completed"
        ).inc()
        obs_metrics.gauge(
            "fidelity.pass_fraction",
            "Passing fraction of evaluated fidelity targets (last sweep)",
        ).set(counts["pass"] / evaluated if evaluated else 1.0)
        obs_metrics.gauge(
            "fidelity.targets_failing",
            "Failing fidelity targets in the last sweep",
        ).set(counts["fail"])
        obs_metrics.histogram(
            "fidelity.sweep_seconds", "Wall time of fidelity sweeps"
        ).observe(time.perf_counter() - start)
        span.set_attribute("verdict", report.verdict)
        span.set_attribute("targets_failed", counts["fail"])
    return report

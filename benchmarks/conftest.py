"""Shared fixtures for the beyond-the-paper experiments.

Every experiment here (ablations, baselines, evasion, label latency,
rule drift, rule insights, the sigma sweep) computes something the CLI
does not render.  Each runs its computation once on one shared synthetic
corpus (``scale=0.02``, seed 7 by default -- ~22k machines / ~70k
events; override with ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_SEED``),
asserts the qualitative finding, and writes the rendered table to
``benchmarks/output/<name>.txt``.  The paper's own tables come from
``repro report --all``, ``repro evaluate`` and ``repro validate``;
timing belongs to ``repro bench``.
"""

from __future__ import annotations

import os

import pytest

from repro import WorldConfig, build_session
from repro.core.evaluation import full_evaluation

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))


@pytest.fixture(scope="session")
def session():
    """The shared synthetic corpus all experiments analyze."""
    return build_session(WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE))


@pytest.fixture(scope="session")
def evaluation(session):
    """The full month-over-month rule evaluation (Tables XVI/XVII)."""
    return full_evaluation(
        session.labeled, session.alexa, taus=(0.0, 0.001)
    )

"""Orchestrator behaviour: workers, memory ceiling, degradation, fallback,
determinism."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import sched
from repro.obs import metrics as obs_metrics
from repro.pipeline import build_session, clear_all_caches
from repro.sched import orchestrator as orch_mod
from repro.serve.queues import BoundedQueue
from repro.synth.world import WorldConfig


def _square(value):
    return value * value


def _sleepy_square(value):
    time.sleep(0.01)
    return value * value


def _counter(name):
    return obs_metrics.counter(name).value


def _run(stage, specs, jobs):
    return sched.Orchestrator(stage, jobs=jobs).run(specs)


# ----------------------------------------------------------------------
# Task execution basics
# ----------------------------------------------------------------------


def test_results_come_back_in_spec_order_parallel():
    specs = [sched.TaskSpec(fn=_square, args=(i,), tag=i) for i in range(6)]
    outcome = _run("test.squares", specs, jobs=2)
    assert outcome.results == [i * i for i in range(6)]
    if outcome.parallel:
        assert outcome.workers == 2
    else:
        # Sandboxes without process pools degrade but must not lose work.
        assert outcome.fallback


def test_single_job_runs_sequentially_in_process():
    specs = [sched.TaskSpec(fn=_square, args=(i,)) for i in range(4)]
    outcome = _run("test.seq", specs, jobs=1)
    assert outcome.results == [0, 1, 4, 9]
    assert not outcome.parallel
    assert not outcome.fallback


def test_empty_and_single_task_stages():
    assert _run("test.empty", [], jobs=4).results == []
    single = _run("test.single", [sched.TaskSpec(fn=_square, args=(3,))], 4)
    assert single.results == [9]
    assert not single.parallel


def test_jobs_validation():
    with pytest.raises(ValueError):
        sched.Orchestrator("test.bad", jobs=0)


# ----------------------------------------------------------------------
# Worker resolution and the memory ceiling
# ----------------------------------------------------------------------


def test_cpu_budget_caps_workers():
    # The CPU budget is ``jobs``, or every core when jobs is unset.
    assert sched.Orchestrator("t", jobs=3).resolve_workers(10) == 3
    cores = os.cpu_count() or 1
    assert sched.Orchestrator("t").resolve_workers(1000) == min(cores, 1000)
    # No tasks still resolves to one (in-process) worker, never zero.
    assert sched.Orchestrator("t", jobs=4).resolve_workers(0) == 1


def test_resolve_workers_clamps_to_task_count():
    assert sched.Orchestrator("t", jobs=64).resolve_workers(8) == 8
    assert sched.Orchestrator("t", jobs=1).resolve_workers(8) == 1
    assert sched.Orchestrator("t", jobs=3).resolve_workers(2) == 2


def test_default_budget_install_and_restore():
    previous = sched.set_memory_budget(123.0)
    try:
        assert previous is None
        assert orch_mod._MEMORY_BUDGET_MB == 123.0
    finally:
        assert sched.set_memory_budget(previous) == 123.0
    assert orch_mod._MEMORY_BUDGET_MB is None


def test_queue_depth_bounds_in_flight_tasks():
    # The in-flight window defaults to min(2 x workers, tasks).
    for tasks, window in ((6, 4), (3, 3)):
        specs = [
            sched.TaskSpec(fn=_sleepy_square, args=(i,)) for i in range(tasks)
        ]
        outcome = _run("test.depth", specs, jobs=2)
        assert outcome.results == [i * i for i in range(tasks)]
        if outcome.parallel:
            assert outcome.window_initial == window
            assert 1 <= outcome.queue_max_depth <= window


# ----------------------------------------------------------------------
# Fallback accounting
# ----------------------------------------------------------------------


def test_pool_failure_falls_back_sequential_and_counts(monkeypatch):
    class BrokenPool:
        def __init__(self, *args, **kwargs):
            raise OSError("process pools unavailable")

    monkeypatch.setattr(orch_mod, "ProcessPoolExecutor", BrokenPool)
    before = _counter("sched.fallback_sequential")
    specs = [sched.TaskSpec(fn=_square, args=(i,)) for i in range(3)]
    outcome = _run("test.fallback", specs, jobs=2)
    assert outcome.results == [0, 1, 4]
    assert outcome.fallback
    assert not outcome.parallel
    assert _counter("sched.fallback_sequential") == before + 1


# ----------------------------------------------------------------------
# Degradation under a memory-budget ceiling
# ----------------------------------------------------------------------


def test_memory_ceiling_shrinks_window_and_preserves_digest():
    """The satellite test: an artificial 1 MB budget is always exceeded,
    so the in-flight shard window must shrink to 1, the run must still
    complete, and the corpus digest must match an unconstrained run."""
    config = WorldConfig(seed=23, scale=0.004, shards=4)
    clear_all_caches()
    unconstrained = build_session(config, jobs=1, cache=False)
    baseline_digest = unconstrained.dataset.content_digest()

    clear_all_caches()
    degradations_before = _counter("sched.degradations")
    previous = sched.set_memory_budget(1.0)
    try:
        constrained = build_session(config, jobs=2, cache=False)
    finally:
        sched.set_memory_budget(previous)
    assert constrained.dataset.content_digest() == baseline_digest
    pool_available = _counter("sched.tasks_parallel") > 0
    if pool_available:
        assert _counter("sched.degradations") > degradations_before
        assert obs_metrics.gauge("sched.window").value == 1


def test_digest_identical_across_jobs_settings():
    config = WorldConfig(seed=29, scale=0.004, shards=4)
    digests = set()
    for jobs in (1, 2, 4):
        clear_all_caches()
        session = build_session(config, jobs=jobs, cache=False)
        digests.add(session.dataset.content_digest())
    assert len(digests) == 1


# ----------------------------------------------------------------------
# BoundedQueue.resize (the shared backpressure primitive)
# ----------------------------------------------------------------------


def test_bounded_queue_resize_unblocks_producer():
    queue = BoundedQueue(capacity=1)
    queue.put("a")
    unblocked = threading.Event()

    def producer():
        queue.put("b", timeout=5.0)
        unblocked.set()

    thread = threading.Thread(target=producer)
    thread.start()
    assert not unblocked.wait(0.05)
    queue.resize(2)
    assert unblocked.wait(5.0)
    thread.join()
    assert len(queue) == 2


def test_bounded_queue_resize_shrink_keeps_items():
    queue = BoundedQueue(capacity=4)
    for item in range(4):
        queue.put(item)
    queue.resize(2)
    assert len(queue) == 4
    assert [queue.get() for _ in range(4)] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        queue.resize(0)

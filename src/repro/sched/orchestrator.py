"""Resource-governed run orchestrator: one owner for every worker fan-out.

World-shard generation (:mod:`repro.synth.engine`), month-pair
evaluation (:mod:`repro.core.evaluation`) and the validation seed sweep
(:mod:`repro.validation.runner`) each hand a task list to an
:class:`Orchestrator`; none of them sizes a pool or keeps a sequential
loop of its own:

* **Workers** -- the minimum of the caller's ``jobs`` (default: one per
  CPU core) and the task count.  One worker runs the tasks in-process.
* **Memory ceiling** -- before each submit the orchestrator reads the
  process tree's RSS from ``/proc`` (:func:`repro.obs.resources.tree_rss_kb`)
  and, when it exceeds the process-wide ceiling installed with
  :func:`set_memory_budget`, *halves the in-flight window* instead of
  letting the pool OOM.  Degradation only ever changes how many tasks
  run concurrently -- never the task list itself -- so the output stays
  bit-identical to an unconstrained run (worlds are pure functions of
  their configs; ``jobs`` and the ceiling are execution knobs).
* **Backpressure** -- the in-flight window is enforced with the same
  :class:`repro.serve.queues.BoundedQueue` the streaming collector uses:
  submission blocks while the queue is at capacity and a completion
  callback drains one token per finished task.  Degradation is a live
  :meth:`~repro.serve.queues.BoundedQueue.resize` of that queue.
* **Telemetry** -- every pool task runs inside the
  :func:`repro.obs.worker.run_task` envelope, and the returned payloads
  are absorbed under the caller's fan-out span, so merged ``--trace``
  trees and summed counters keep matching a ``jobs=1`` run.  Platforms
  where process pools are unavailable (seccomp'd sandboxes, no
  ``/dev/shm``) fall back to in-process execution -- same results --
  and increment ``sched.fallback_sequential`` instead of hiding it.

The stage verdict comes back as a :class:`StageOutcome` carrying the
results (always in spec order) plus how the stage actually ran.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from ..obs import resources, trace
from ..obs import worker as obs_worker

__all__ = [
    "Orchestrator",
    "StageOutcome",
    "TaskSpec",
    "set_memory_budget",
]

#: In-flight tasks per worker: one running plus one queued keeps workers
#: busy without materialising every pending task's arguments at once.
DEPTH_PER_WORKER = 2


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit of work.

    ``fn``/``args`` must be picklable (module-level function, plain
    data) because they cross the process boundary.  ``tag`` is the
    opaque worker id stamped on the task's grafted span roots -- the
    shard index, month index or sweep seed at the built-in sites.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    tag: Any = None


@dataclasses.dataclass
class StageOutcome:
    """How one stage ran, and what it produced (in spec order)."""

    stage: str
    results: List[Any]
    workers: int
    parallel: bool
    fallback: bool
    window_initial: int
    window_final: int
    degradations: int
    queue_max_depth: int
    wall_seconds: float


#: Process-tree RSS ceiling in MB shared by every stage; ``None`` is
#: unconstrained.
_MEMORY_BUDGET_MB: Optional[float] = None


def set_memory_budget(memory_mb: Optional[float]) -> Optional[float]:
    """Install the process-wide memory ceiling; returns the previous one.

    The CLI points this at ``--memory-budget-mb`` so every fan-out in a
    run -- generation shards, month pairs, sweep seeds -- shares one
    ceiling without threading it through every signature.
    """
    global _MEMORY_BUDGET_MB
    previous = _MEMORY_BUDGET_MB
    _MEMORY_BUDGET_MB = memory_mb
    return previous


class Orchestrator:
    """Runs one stage's tasks on ``jobs`` workers under the memory ceiling."""

    def __init__(self, stage: str, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.stage = stage
        self.jobs = jobs

    def resolve_workers(self, tasks: int) -> int:
        """Worker count for ``tasks`` tasks: ``jobs`` clamped to the tasks."""
        jobs = self.jobs if self.jobs is not None else (os.cpu_count() or 1)
        return max(1, min(jobs, tasks))

    @staticmethod
    def _memory_pressured() -> bool:
        limit = _MEMORY_BUDGET_MB
        if limit is None:
            return False
        return resources.tree_rss_kb() / 1024.0 >= limit

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        specs: Sequence[TaskSpec],
        parent_span: Optional[Any] = None,
    ) -> StageOutcome:
        """Execute every spec; results come back in spec order.

        ``parent_span`` is the caller's live fan-out span: worker span
        trees graft under it (roots tagged with each spec's ``tag``)
        and the stage's scheduling attributes land on it.
        """
        specs = list(specs)
        start = time.perf_counter()
        workers = self.resolve_workers(len(specs))
        if workers <= 1:
            outcome = self._run_sequential(specs, workers, fallback=False)
        else:
            try:
                outcome = self._run_parallel(specs, workers, parent_span)
            except (OSError, PermissionError):
                obs_metrics.counter(
                    "sched.fallback_sequential",
                    "Stages that degraded to in-process execution because "
                    "a process pool could not be created",
                ).inc()
                outcome = self._run_sequential(specs, workers, fallback=True)
        outcome.wall_seconds = time.perf_counter() - start
        obs_metrics.counter(
            "sched.tasks", "Tasks executed by the run orchestrator"
        ).inc(len(specs))
        obs_metrics.histogram(
            "sched.stage_seconds", "Wall time of orchestrated stages"
        ).observe(outcome.wall_seconds)
        if isinstance(parent_span, trace.Span):
            parent_span.set_attribute("sched_workers", outcome.workers)
            parent_span.set_attribute("sched_window", outcome.window_final)
            if outcome.degradations:
                parent_span.set_attribute(
                    "sched_degradations", outcome.degradations
                )
            if outcome.fallback:
                parent_span.set_attribute("sched_fallback", True)
        return outcome

    def _run_sequential(
        self, specs: List[TaskSpec], workers: int, fallback: bool
    ) -> StageOutcome:
        # In-process execution records spans/metrics straight into the
        # parent's tracer and registry -- no envelope, no payloads.
        results = [spec.fn(*spec.args) for spec in specs]
        return StageOutcome(
            stage=self.stage,
            results=results,
            workers=1 if fallback else workers,
            parallel=False,
            fallback=fallback,
            window_initial=1,
            window_final=1,
            degradations=0,
            queue_max_depth=0,
            wall_seconds=0.0,
        )

    def _run_parallel(
        self,
        specs: List[TaskSpec],
        workers: int,
        parent_span: Optional[Any],
    ) -> StageOutcome:
        # Imported here: repro.serve pulls in repro.core, which imports
        # this package right back -- the lazy import breaks the cycle.
        from ..serve.queues import BoundedQueue

        obs = obs_worker.current_config()
        mp_context = None
        if "fork" in multiprocessing.get_all_start_methods():
            mp_context = multiprocessing.get_context("fork")
        window = min(DEPTH_PER_WORKER * workers, len(specs))
        window_initial = window
        degradations = 0
        admission = BoundedQueue(capacity=window)

        def release(_future: Any) -> None:
            # Runs on the executor's result thread: free one admission
            # token so a blocked submit can proceed.
            try:
                admission.get(timeout=0)
            except Exception:  # pragma: no cover - defensive drain
                pass

        futures = []
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context
        ) as pool:
            for index, spec in enumerate(specs):
                if window > 1 and self._memory_pressured():
                    window = max(1, window // 2)
                    admission.resize(window)
                    degradations += 1
                    obs_metrics.counter(
                        "sched.degradations",
                        "In-flight window halvings under memory pressure",
                    ).inc()
                admission.put(index)
                future = pool.submit(
                    obs_worker.run_task, obs, spec.tag, spec.fn, *spec.args
                )
                future.add_done_callback(release)
                futures.append(future)
            pairs = [future.result() for future in futures]
        results = [result for result, _ in pairs]
        obs_worker.absorb(
            (payload for _, payload in pairs), parent_span=parent_span
        )
        obs_metrics.counter(
            "sched.tasks_parallel",
            "Tasks executed via an orchestrator process pool",
        ).inc(len(specs))
        obs_metrics.gauge(
            "sched.window",
            "In-flight task window of the last parallel stage",
        ).set(window)
        return StageOutcome(
            stage=self.stage,
            results=results,
            workers=workers,
            parallel=True,
            fallback=False,
            window_initial=window_initial,
            window_final=window,
            degradations=degradations,
            queue_max_depth=admission.max_depth,
            wall_seconds=0.0,
        )


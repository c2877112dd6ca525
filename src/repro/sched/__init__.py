"""Resource-governed scheduling: the run orchestrator.

:class:`TaskSpec`/:class:`Orchestrator` (``orchestrator``) is the single
owner of all pool/job management: the ``jobs`` rule, the process-wide
memory ceiling (:func:`set_memory_budget`) read against ``/proc``,
bounded-queue backpressure, graceful degradation under memory pressure,
and cross-process telemetry via :func:`repro.obs.worker.run_task`.

See ``docs/orchestrator.md`` for the architecture discussion.
"""

from .orchestrator import (
    Orchestrator,
    StageOutcome,
    TaskSpec,
    set_memory_budget,
)

__all__ = [
    "Orchestrator",
    "StageOutcome",
    "TaskSpec",
    "set_memory_budget",
]

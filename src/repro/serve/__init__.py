"""Streaming ingestion service (``repro serve``).

Turns the collection step of the batch pipeline (generate -> collect)
into a long-running service: simulated agents push download events
through a bounded-queue collector front-end into the dataset store.
The package's load-bearing guarantee is the *equivalence oracle*:
whatever the batch size, flush interval, agent count, or injected fault
schedule, the store committed by the streaming path is
``content_digest``-identical to batch
:func:`repro.telemetry.collector.collect`.  Labels and rules for a
streamed store come from the batch stages, as for any other store.

Modules
-------
``queues``
    Bounded hand-off queue with ``block``/``shed`` backpressure.
``faults``
    Deterministic fault schedules (crashes, poison events, SIGTERM).
``service``
    :class:`IngestService` -- the collector front-end + store writer.
``loadgen``
    :class:`LoadGenerator` -- per-machine agents with edge filters.

See ``docs/streaming_service.md`` for the architecture discussion.
"""

from .faults import FaultSchedule, InjectedCrash
from .loadgen import LoadGenerator, split_agent_streams
from .queues import BoundedQueue, QueuePolicy
from .service import IngestReport, IngestService, ServeConfig

__all__ = [
    "BoundedQueue",
    "FaultSchedule",
    "IngestReport",
    "IngestService",
    "InjectedCrash",
    "LoadGenerator",
    "QueuePolicy",
    "ServeConfig",
    "split_agent_streams",
]

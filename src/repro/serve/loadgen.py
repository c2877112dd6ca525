"""Simulated agent fleet driving the ingestion service.

The load generator is the client half of the system: it partitions a
raw corpus across ``agents`` per-machine agent processes, runs the
*edge* half of the reporting pipeline inside each agent
(:meth:`SoftwareAgent.filter_reason` -- executed-only and URL-whitelist
filters, exactly what the paper's endpoint software does), and streams
the survivors to the service as wire records.

Two ordering invariants keep the equivalence oracle exact:

* Machines are assigned to agents deterministically (stable hash of the
  machine id), so the same corpus always splits the same way.
* Agent streams are merged back by **original corpus index**, not by
  timestamp.  Timestamp merging would re-order equal-timestamp events
  differently for different agent counts; index merging reproduces the
  corpus order bit-for-bit, making the streamed digest independent of
  how many agents the fleet has.

Edge filtering produces per-agent :class:`FilterStats` counting
``observed``/``not_executed``/``whitelisted_url``; the service's central
collector counts ``over_sigma``/``reported``.  Their
:meth:`FilterStats.merge` sum equals single-site batch :func:`collect`
stats -- asserted by the fault-injection tests.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
import zlib
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from ..obs import trace
from ..telemetry.agent import ReportingPolicy, SoftwareAgent
from ..telemetry.collector import FilterStats
from ..telemetry.events import DownloadEvent, row_dict
from .faults import FaultSchedule, make_poison_record
from .queues import QueueClosed
from .service import IngestService

__all__ = ["LoadGenerator", "LoadReport", "split_agent_streams"]


def _agent_of(machine_id: str, agents: int) -> int:
    """Deterministic machine -> agent assignment (process-hash free)."""
    return zlib.crc32(machine_id.encode()) % agents


def split_agent_streams(
    events: Sequence[DownloadEvent], agents: int
) -> List[List[Tuple[int, DownloadEvent]]]:
    """Partition a corpus into per-agent ``(corpus_index, event)`` streams.

    Each agent sees only its machines' events, in corpus order; the
    indices let :meth:`LoadGenerator.merged_stream` reassemble the exact
    corpus order whatever ``agents`` is.
    """
    if agents < 1:
        raise ValueError("need at least one agent")
    streams: List[List[Tuple[int, DownloadEvent]]] = [[] for _ in range(agents)]
    for index, event in enumerate(events):
        streams[_agent_of(event.machine_id, agents)].append((index, event))
    return streams


@dataclasses.dataclass(frozen=True)
class LoadReport:
    """What the agent fleet produced during one run."""

    agents: int
    produced: int
    poison_injected: int
    stopped_early: bool
    edge_stats: FilterStats


class LoadGenerator:
    """Replays a corpus through edge-filtering agents into the service."""

    def __init__(
        self,
        events: Sequence[DownloadEvent],
        agents: int = 4,
        policy: Optional[ReportingPolicy] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        self._events = events
        self.agents = agents
        self.policy = policy or ReportingPolicy()
        self.faults = faults or FaultSchedule()
        self.edge_stats = FilterStats()
        self.poison_injected = 0

    # ------------------------------------------------------------------
    # Stream assembly
    # ------------------------------------------------------------------

    def _edge_filtered(
        self, stream: Iterable[Tuple[int, DownloadEvent]]
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """One agent: apply edge filters, count, emit wire records."""
        agent = SoftwareAgent(self.policy)
        stats = self.edge_stats
        for index, event in stream:
            stats.observed += 1
            reason = agent.filter_reason(event)
            if reason is not None:
                if reason == "not_executed":
                    stats.not_executed += 1
                else:
                    stats.whitelisted_url += 1
                continue
            yield index, row_dict(event)

    def merged_stream(self) -> Iterator[Dict[str, Any]]:
        """All agents' survivors, merged back into corpus order.

        Lazy end to end: the agent generators advance only as the merge
        consumes them, so a bounded queue downstream backpressures the
        whole fleet.  Poison records from the fault schedule are spliced
        in after the merge (they belong to the wire, not to any agent).
        """
        streams = split_agent_streams(self._events, self.agents)
        merged = heapq.merge(
            *(self._edge_filtered(stream) for stream in streams),
            key=lambda pair: pair[0],
        )
        produced = 0
        for _, record in merged:
            yield record
            produced += 1
            if self.faults.poison_due(produced):
                self.poison_injected += 1
                obs_metrics.counter(
                    "loadgen.poison_injected",
                    "Malformed wire records injected by the fault schedule",
                ).inc()
                yield make_poison_record(produced)
            if self.faults.sigterm_due(produced):
                return

    # ------------------------------------------------------------------
    # Driving a service
    # ------------------------------------------------------------------

    def run_inline(self, service: IngestService) -> LoadReport:
        """Feed the merged stream straight into ``service.run_inline``."""
        with trace.span("loadgen.run", agents=self.agents, mode="inline"):
            stream = self.merged_stream()
            service.run_inline(stream)
        return self._report(stopped_early=self.faults.sigterm_after_events
                            is not None)

    def run_threaded(
        self,
        service: IngestService,
        rate_per_sec: Optional[float] = None,
    ) -> LoadReport:
        """Produce into the service's bounded queue (service must be
        started); returns once the stream is exhausted or intake closes.

        ``rate_per_sec`` optionally paces production; unpaced, the
        producer runs as fast as backpressure allows.
        """
        interval = 1.0 / rate_per_sec if rate_per_sec else 0.0
        produced = 0
        stopped = False
        with trace.span("loadgen.run", agents=self.agents, mode="threaded"):
            next_at = time.monotonic()
            for record in self.merged_stream():
                if interval:
                    delay = next_at - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    next_at += interval
                try:
                    service.submit(record)
                except QueueClosed:
                    stopped = True
                    break
                produced += 1
        # A scheduled sigterm truncates the stream even though the
        # queue never closed on us -- that run is an early stop too.
        return self._report(
            stopped_early=stopped
            or self.faults.sigterm_after_events is not None
        )

    def _report(self, stopped_early: bool) -> LoadReport:
        produced = (
            self.edge_stats.observed
            - self.edge_stats.not_executed
            - self.edge_stats.whitelisted_url
        )
        obs_metrics.counter(
            "loadgen.events_produced", "Wire records emitted by the fleet"
        ).inc(produced)
        return LoadReport(
            agents=self.agents,
            produced=produced,
            poison_injected=self.poison_injected,
            stopped_early=stopped_early,
            edge_stats=self.edge_stats,
        )

"""The ingestion service: queue consumer, central filter, store writer.

:class:`IngestService` is the server half of ``repro serve``.  Agents
(see :mod:`repro.serve.loadgen`) push *edge-filtered* wire records into
a :class:`~repro.serve.queues.BoundedQueue`; a single consumer drains
it, applies the central prevalence filter
(:meth:`CollectionServer.submit` with ``prefiltered=True``), coalesces
accepted events into batches, and appends each batch as one atomic part
of a store :class:`~repro.telemetry.store.AppendSession`.

Single-consumer draining is what makes the equivalence oracle possible:
events reach the collector in exactly the order the load generator
merged them (the corpus order), so the committed store's
``content_digest`` equals batch :func:`collect` output for *any* batch
size and flush interval -- batching only moves part boundaries, never
rows.

Crash recovery composes with the store's checkpoint protocol: on
``resume=True`` the append session reports how many reported events are
already durable, and the service re-submits the full replayed stream to
rebuild the prevalence filter's in-memory state while skipping exactly
that many re-appends.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..obs import metrics as obs_metrics
from ..obs import trace
from ..telemetry.agent import ReportingPolicy
from ..telemetry.collector import CollectionServer, FilterStats
from ..telemetry.events import DownloadEvent, FileRecord, ProcessRecord
from ..telemetry.store import open_append_session
from .queues import BoundedQueue, QueueClosed, QueuePolicy

__all__ = ["IngestReport", "IngestService", "ServeConfig", "percentile"]


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a sample list (0.0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Tunables of one ingestion run."""

    queue_capacity: int = 4096
    queue_policy: QueuePolicy = QueuePolicy.BLOCK
    batch_max: int = 512
    #: Seconds a partial batch may wait for more events before flushing.
    flush_interval: float = 0.05
    compress: bool = False
    #: Producer-side put timeout -- the deadlock backstop.
    put_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise ValueError("batch_max must be at least 1")
        if self.flush_interval <= 0:
            raise ValueError("flush_interval must be positive")


@dataclasses.dataclass(frozen=True)
class IngestReport:
    """What one completed (committed) serve run did."""

    ingested: int
    reported: int
    poisoned: int
    shed: int
    batches: int
    resumed_from: int
    content_digest: str
    stats: FilterStats
    p99_latency_ms: float
    events_per_sec: float
    duration_sec: float
    queue_max_depth: int

    def as_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["stats"] = self.stats.as_dict()
        return payload


class IngestService:
    """Drains wire records into an append session behind a bounded queue.

    Can run two ways:

    * :meth:`run_inline` -- synchronously consume an iterable of wire
      records on the caller's thread.  Deterministic (no wall-clock
      flushes); what the equivalence sweeps use.
    * :meth:`start` / :meth:`stop` / :meth:`join` -- a consumer thread
      drains :attr:`queue` until the queue closes or a stop request
      (e.g. SIGTERM) lands.  What ``repro serve`` uses.

    Either way, :meth:`finish`/the consumer commits the store manifest
    and produces an :class:`IngestReport`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        files: Mapping[str, FileRecord],
        processes: Mapping[str, ProcessRecord],
        config: Optional[ServeConfig] = None,
        policy: Optional[ReportingPolicy] = None,
        resume: bool = False,
        fault_hook=None,
    ) -> None:
        self.config = config or ServeConfig()
        self.directory = Path(directory)
        self._files = files
        self._processes = processes
        self.collector = CollectionServer(policy)
        self.session = open_append_session(
            self.directory,
            compress=self.config.compress,
            resume=resume,
            fault_hook=fault_hook,
        )
        self.resumed_from = self.session.events_committed
        self._skip_reported = self.session.events_committed
        self.queue = BoundedQueue(
            self.config.queue_capacity, self.config.queue_policy
        )
        self._pending: List[Tuple[float, DownloadEvent]] = []
        self._latencies: List[float] = []
        self.ingested = 0
        self.poisoned = 0
        self.batches = 0
        self._stop_requested = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._report: Optional[IngestReport] = None
        self._consumer_error: Optional[BaseException] = None
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # One-record processing (shared by both modes)
    # ------------------------------------------------------------------

    def _decode(self, record: Any) -> Optional[DownloadEvent]:
        try:
            if not isinstance(record, Mapping):
                raise TypeError(f"wire record must be a mapping, got "
                                f"{type(record).__name__}")
            return DownloadEvent(**record)
        except (TypeError, ValueError) as exc:
            self.poisoned += 1
            self.session.quarantine(
                location=f"serve:record-{self.ingested}",
                error=str(exc),
                raw=repr(record),
            )
            obs_metrics.counter(
                "serve.events_poisoned",
                "Undecodable wire records quarantined by the service",
            ).inc()
            return None

    def _ingest(self, record: Any, arrival: float) -> None:
        self.ingested += 1
        event = self._decode(record)
        if event is None:
            return
        if not self.collector.submit(event, prefiltered=True):
            return
        if self._skip_reported > 0:
            # Already durable from the pre-crash run; the submit above
            # only rebuilt the prevalence filter's state.
            self._skip_reported -= 1
            return
        self._pending.append((arrival, event))
        if len(self._pending) >= self.config.batch_max:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        batch = self._pending
        self._pending = []
        self.session.append_events(event for _, event in batch)
        self.batches += 1
        done = time.monotonic()
        histogram = obs_metrics.histogram(
            "serve.ingest_latency_ms",
            "Per-event latency from arrival to durable append (ms)",
        )
        for arrival, _ in batch:
            latency = (done - arrival) * 1000.0
            self._latencies.append(latency)
            histogram.observe(latency)
        obs_metrics.counter(
            "serve.batches_flushed", "Store parts written by the service"
        ).inc()

    def _oldest_pending_age(self, now: float) -> float:
        if not self._pending:
            return 0.0
        return now - self._pending[0][0]

    # ------------------------------------------------------------------
    # Inline mode
    # ------------------------------------------------------------------

    def run_inline(self, records) -> IngestReport:
        """Consume an iterable of wire records synchronously, then commit.

        Flushes happen on batch size and at end-of-stream only, so the
        part layout is a pure function of the input -- the property the
        digest-equivalence sweeps quantify over.
        """
        self._started_at = time.monotonic()
        with trace.span("serve.run_inline") as span:
            for record in records:
                if self._stop_requested.is_set():
                    break
                self._ingest(record, time.monotonic())
            report = self.finish()
            span.set_attribute("ingested", report.ingested)
            span.set_attribute("reported", report.reported)
        return report

    # ------------------------------------------------------------------
    # Threaded mode
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the consumer thread draining :attr:`queue`."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._consume_loop, name="serve-consumer", daemon=True
        )
        self._thread.start()

    def _consume_loop(self) -> None:
        try:
            with trace.span("serve.consume") as span:
                while not self._stop_requested.is_set():
                    now = time.monotonic()
                    wait = self.config.flush_interval - self._oldest_pending_age(now)
                    try:
                        item = self.queue.get(timeout=max(wait, 0.001))
                    except TimeoutError:
                        self._flush()
                        continue
                    except QueueClosed:
                        break
                    self._ingest(item, time.monotonic())
                self._report = self.finish()
                span.set_attribute("ingested", self._report.ingested)
        except BaseException as exc:  # noqa: BLE001 - surfaced via join()
            self._consumer_error = exc

    def submit(self, record: Any) -> bool:
        """Producer entry point: enqueue one wire record.

        Applies the configured backpressure policy; returns ``False``
        when the record was shed.
        """
        return self.queue.put(record, timeout=self.config.put_timeout)

    def request_stop(self) -> None:
        """Ask the consumer to drain its batch, commit, and exit."""
        self._stop_requested.set()
        self.queue.close()

    def install_signal_handler(self, signum: int = signal.SIGTERM) -> None:
        """Route ``signum`` (default SIGTERM) to :meth:`request_stop`.

        No-op off the main thread (CPython only allows signal handler
        installation there).
        """
        if threading.current_thread() is not threading.main_thread():
            return

        def _handle(_signum, _frame) -> None:
            obs_metrics.counter(
                "serve.stop_signals", "Stop signals received by the service"
            ).inc()
            self.request_stop()

        signal.signal(signum, _handle)

    def join(self, timeout: Optional[float] = None) -> IngestReport:
        """Close intake, wait for the consumer, re-raise its error."""
        self.queue.close()
        assert self._thread is not None, "service was never started"
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("serve consumer did not finish in time")
        if self._consumer_error is not None:
            raise self._consumer_error
        assert self._report is not None
        return self._report

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def finish(self) -> IngestReport:
        """Flush pending events, commit the manifest, build the report."""
        self._flush()
        manifest = self.session.commit(self._files, self._processes)
        duration = time.monotonic() - (self._started_at or time.monotonic())
        report = IngestReport(
            ingested=self.ingested,
            reported=self.collector.stats.reported,
            poisoned=self.poisoned,
            shed=self.queue.shed,
            batches=self.batches,
            resumed_from=self.resumed_from,
            content_digest=manifest.content_digest,
            stats=self.collector.stats,
            p99_latency_ms=percentile(self._latencies, 0.99),
            events_per_sec=(
                self.ingested / duration if duration > 0 else 0.0
            ),
            duration_sec=duration,
            queue_max_depth=self.queue.max_depth,
        )
        obs_metrics.counter(
            "serve.events_ingested", "Wire records consumed by the service"
        ).inc(self.ingested)
        obs_metrics.gauge(
            "serve.queue_high_water", "Deepest the ingest queue ever got"
        ).set(self.queue.max_depth)
        self._report = report
        return report

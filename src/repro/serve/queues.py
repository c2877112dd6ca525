"""Bounded hand-off queue between agents and the ingest consumer.

The collector front-end must never buffer unboundedly: a consumer
stalled on a slow store flush would otherwise grow the queue until the
process OOMs -- the classic unbounded-mailbox failure.  The queue
therefore has a hard capacity and one of two backpressure policies:

``block``
    Producers wait until the consumer drains (lossless; throughput is
    throttled to the consumer's rate).  This is the default and the only
    policy under which the streamed store is digest-identical to batch
    collection.
``shed``
    Producers drop the event immediately when the queue is full,
    counting it in ``serve.events_shed`` (lossy; protects latency when
    falling behind is worse than losing telemetry).

Implemented on :class:`threading.Condition` rather than
:class:`queue.Queue` so the close/drain protocol and the depth
high-water mark are explicit and testable.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from typing import Any, Deque, Optional

from ..obs import metrics as obs_metrics

__all__ = ["BoundedQueue", "QueueClosed", "QueuePolicy"]


class QueuePolicy(str, enum.Enum):
    """What a producer does when the queue is at capacity."""

    BLOCK = "block"
    SHED = "shed"


class QueueClosed(Exception):
    """Raised when putting into (or draining past) a closed queue."""


class BoundedQueue:
    """A closable FIFO with a hard capacity and explicit backpressure."""

    def __init__(
        self, capacity: int, policy: QueuePolicy = QueuePolicy.BLOCK
    ) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.capacity = capacity
        self.policy = QueuePolicy(policy)
        self._items: Deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self.enqueued = 0
        self.shed = 0
        self.max_depth = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def put(self, item: Any, timeout: Optional[float] = None) -> bool:
        """Enqueue one item; returns ``False`` if it was shed.

        Under ``BLOCK``, waits for room (raising :class:`QueueClosed` if
        the queue closes while waiting, or :class:`TimeoutError` after
        ``timeout`` seconds -- the deadlock backstop the fault-injection
        tests rely on).  Under ``SHED``, a full queue drops the item and
        counts it instead of waiting.
        """
        with self._lock:
            if self._closed:
                raise QueueClosed("put() on a closed queue")
            if len(self._items) >= self.capacity:
                if self.policy is QueuePolicy.SHED:
                    self.shed += 1
                    obs_metrics.counter(
                        "serve.events_shed",
                        "Events dropped by queue backpressure (shed policy)",
                    ).inc()
                    return False
                if not self._not_full.wait_for(
                    lambda: self._closed or len(self._items) < self.capacity,
                    timeout=timeout,
                ):
                    raise TimeoutError(
                        f"queue full for {timeout}s (capacity {self.capacity})"
                    )
                if self._closed:
                    raise QueueClosed("queue closed while waiting for room")
            self._items.append(item)
            self.enqueued += 1
            depth = len(self._items)
            if depth > self.max_depth:
                self.max_depth = depth
            self._not_empty.notify()
            return True

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Any:
        """Dequeue one item, waiting for one to arrive.

        Raises :class:`QueueClosed` once the queue is closed *and*
        drained, and :class:`TimeoutError` if nothing arrives in
        ``timeout`` seconds.
        """
        with self._lock:
            if not self._not_empty.wait_for(
                lambda: self._items or self._closed, timeout=timeout
            ):
                raise TimeoutError(f"queue empty for {timeout}s")
            if not self._items:
                raise QueueClosed("queue closed and drained")
            item = self._items.popleft()
            self._not_full.notify()
            return item

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting puts; pending items remain drainable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

"""Process-wide metrics registry: counters, gauges, histograms.

Every pipeline stage reports through one shared registry
(:func:`get_registry`), so a single snapshot covers generation,
collection, labeling and rule learning.  The registry is always on --
updates are a dict lookup plus a locked add, cheap enough that the
instrumented code never branches on an enable flag -- and instruments
are created lazily on first use (``counter("cache.hits").inc()``).

Metric names are dotted (``world.events_generated``); the Prometheus
exporter sanitizes them to the ``[a-zA-Z0-9_]`` charset and appends the
conventional ``_total`` suffix to counters.

Exports: :meth:`MetricsRegistry.snapshot` (plain dicts),
:meth:`MetricsRegistry.to_json` and :meth:`MetricsRegistry.to_prometheus`
(text exposition format, scrapeable by a Prometheus file/textfile
collector).
"""

from __future__ import annotations

import json
import re
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
]

#: Default histogram bucket upper bounds, in seconds (tuned for stage
#: wall-times: sub-millisecond rule matches up to multi-minute runs).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name for Prometheus exposition."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self.set(0.0)

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram with count/sum/min/max."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.description = description
        self.buckets = tuple(sorted(buckets))
        self._bucket_counts = [0] * len(self.buckets)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._bucket_counts[index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * len(self.buckets)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": (self._sum / self._count) if self._count else None,
            "buckets": {
                str(bound): count
                for bound, count in zip(self.buckets, self._bucket_counts)
            },
        }


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    Re-requesting an existing name returns the same instrument;
    requesting it as a different kind raises ``ValueError`` (a metric
    name means one thing for the life of the process).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, cls, name: str, description: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, description, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create(
            Histogram, name, description, buckets=buckets
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument but keep the registrations."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def clear(self) -> None:
        """Forget every instrument (fresh registry)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict view: ``{"counters": ..., "gauges": ...,
        "histograms": ...}`` with metrics sorted by name."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        out: Dict[str, Dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name, metric in metrics:
            out[metric.kind + "s"][name] = metric.snapshot()
        return out

    def to_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for name, metric in metrics:
            prom = _prom_name(name)
            if metric.kind == "counter":
                prom += "_total"
            if metric.description:
                lines.append(f"# HELP {prom} {metric.description}")
            lines.append(f"# TYPE {prom} {metric.kind}")
            if metric.kind == "histogram":
                snap = metric.snapshot()
                cumulative = 0
                for bound in metric.buckets:
                    cumulative = snap["buckets"][str(bound)]
                    lines.append(
                        f'{prom}_bucket{{le="{bound}"}} {cumulative}'
                    )
                lines.append(f'{prom}_bucket{{le="+Inf"}} {snap["count"]}')
                lines.append(f"{prom}_sum {snap['sum']}")
                lines.append(f"{prom}_count {snap['count']}")
            else:
                lines.append(f"{prom} {metric.value}")
        if not lines:
            return ""
        return "\n".join(lines) + "\n"


#: Process-wide default registry used by all built-in instrumentation.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def counter(name: str, description: str = "") -> Counter:
    """Get or create a counter on the default registry."""
    return _REGISTRY.counter(name, description)


def gauge(name: str, description: str = "") -> Gauge:
    """Get or create a gauge on the default registry."""
    return _REGISTRY.gauge(name, description)


def histogram(
    name: str,
    description: str = "",
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> Histogram:
    """Get or create a histogram on the default registry."""
    return _REGISTRY.histogram(name, description, buckets)

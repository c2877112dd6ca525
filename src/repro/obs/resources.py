"""Process resource accounting: RSS, CPU time, GC pauses.  Opt-in.

Reads come from ``/proc/self`` and :func:`resource.getrusage` only --
no third-party dependency.  The module is **disabled by default**; the
tracer probes it once per span *while tracing is already enabled*, so
the no-op guarantee of :mod:`repro.obs.trace` (one boolean check, no
allocation, no clock read while disabled) is untouched.

When enabled (:func:`enable`, or the ``--resources`` CLI flag), every
recorded span carries:

``rss_delta_kb``
    Resident-set growth between span entry and exit (can be negative).
``rss_peak_kb``
    Process peak RSS (``VmHWM``) observed at span exit.
``cpu_user_s`` / ``cpu_sys_s``
    User/system CPU seconds consumed inside the span.
``gc_collections`` / ``gc_pause_s``
    Garbage-collection runs that fired inside the span and their total
    stop-the-world pause time (only set when a collection fired).

and the process-level gauges/counters ``proc.rss_kb``,
``proc.rss_peak_kb``, ``proc.cpu_user_s``, ``proc.cpu_sys_s``,
``proc.gc_collections`` and ``proc.gc_pause_seconds`` are kept current.

GC pauses are measured with :data:`gc.callbacks` (registered on
:func:`enable`, removed on :func:`disable`): the wall time between the
``start`` and ``stop`` callback of each collection is attributed to
whatever spans were open when it fired.

:func:`reset_peak_rss` (write ``5`` to ``/proc/self/clear_refs``) lets
the bench runner measure an honest per-bench peak instead of the
process-lifetime high-water mark; where the kernel forbids it the
caller falls back to current RSS.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import resource
import threading
import time
from typing import Any, Optional

from . import metrics as _metrics

__all__ = [
    "ResourceSample",
    "begin_span",
    "cpu_seconds",
    "disable",
    "enable",
    "enabled",
    "finish_span",
    "peak_rss_kb",
    "reset_peak_rss",
    "rss_kb",
    "sample",
]

_ENABLED = False

try:
    _PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024.0
except (ValueError, OSError, AttributeError):  # pragma: no cover
    _PAGE_KB = 4.0

# ----------------------------------------------------------------------
# GC pause accounting (gc.callbacks)
# ----------------------------------------------------------------------

_GC_LOCK = threading.Lock()
_GC_COLLECTIONS = 0
_GC_PAUSE_S = 0.0
_GC_STARTED: Optional[float] = None


def _gc_callback(phase: str, info: dict) -> None:
    global _GC_COLLECTIONS, _GC_PAUSE_S, _GC_STARTED
    now = time.monotonic()
    with _GC_LOCK:
        if phase == "start":
            _GC_STARTED = now
        elif phase == "stop":
            _GC_COLLECTIONS += 1
            if _GC_STARTED is not None:
                _GC_PAUSE_S += now - _GC_STARTED
                _GC_STARTED = None


# ----------------------------------------------------------------------
# Switches
# ----------------------------------------------------------------------


def enable() -> None:
    """Start resource accounting (span attributes + ``proc.*`` metrics)."""
    global _ENABLED
    if _gc_callback not in gc.callbacks:
        gc.callbacks.append(_gc_callback)
    _ENABLED = True


def disable() -> None:
    """Stop resource accounting and unhook the GC callback."""
    global _ENABLED
    _ENABLED = False
    try:
        gc.callbacks.remove(_gc_callback)
    except ValueError:
        pass


def enabled() -> bool:
    """Whether spans currently record resource attributes."""
    return _ENABLED


# ----------------------------------------------------------------------
# Raw reads
# ----------------------------------------------------------------------


def rss_kb() -> float:
    """Current resident set size in KiB (``/proc/self/statm``)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_KB
    except (OSError, IndexError, ValueError):
        # Portable fallback: the lifetime peak is the best rusage offers.
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def peak_rss_kb() -> float:
    """Peak resident set size in KiB (``VmHWM``, falling back to rusage)."""
    try:
        with open("/proc/self/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return float(line.split()[1])
    except (OSError, IndexError, ValueError):
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def cpu_seconds() -> tuple:
    """``(user_seconds, system_seconds)`` consumed by this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS watermark; True if the kernel allowed it.

    Writing ``5`` to ``/proc/self/clear_refs`` zeroes ``VmHWM`` so the
    next :func:`peak_rss_kb` read reflects only allocations made after
    the reset -- the bench runner uses this for per-bench peaks.
    """
    try:
        with open("/proc/self/clear_refs", "wb") as handle:
            handle.write(b"5")
        return True
    except OSError:
        return False


# ----------------------------------------------------------------------
# Span probes (called by repro.obs.trace while enabled)
# ----------------------------------------------------------------------


@dataclasses.dataclass
class ResourceSample:
    """One point-in-time resource reading."""

    rss_kb: float
    peak_rss_kb: float
    cpu_user_s: float
    cpu_sys_s: float
    gc_collections: int
    gc_pause_s: float


def sample() -> ResourceSample:
    """Read every tracked resource once."""
    user_s, sys_s = cpu_seconds()
    with _GC_LOCK:
        collections, pause_s = _GC_COLLECTIONS, _GC_PAUSE_S
    return ResourceSample(
        rss_kb=rss_kb(),
        peak_rss_kb=peak_rss_kb(),
        cpu_user_s=user_s,
        cpu_sys_s=sys_s,
        gc_collections=collections,
        gc_pause_s=pause_s,
    )


def begin_span() -> ResourceSample:
    """Span-entry probe: the baseline the exit probe diffs against."""
    return sample()


def finish_span(start: ResourceSample, span: Any) -> None:
    """Span-exit probe: attach deltas to ``span``, refresh ``proc.*``."""
    end = sample()
    span.set_attribute("rss_delta_kb", round(end.rss_kb - start.rss_kb, 1))
    span.set_attribute("rss_peak_kb", round(end.peak_rss_kb, 1))
    span.set_attribute(
        "cpu_user_s", round(end.cpu_user_s - start.cpu_user_s, 6)
    )
    span.set_attribute("cpu_sys_s", round(end.cpu_sys_s - start.cpu_sys_s, 6))
    gc_runs = end.gc_collections - start.gc_collections
    if gc_runs:
        span.set_attribute("gc_collections", gc_runs)
        span.set_attribute(
            "gc_pause_s", round(end.gc_pause_s - start.gc_pause_s, 6)
        )
        _metrics.counter(
            "proc.gc_collections", "GC runs observed inside traced spans"
        ).inc(gc_runs)
        _metrics.counter(
            "proc.gc_pause_seconds", "Total GC pause time inside traced spans"
        ).inc(end.gc_pause_s - start.gc_pause_s)
    _metrics.gauge("proc.rss_kb", "Current resident set size").set(end.rss_kb)
    peak = _metrics.gauge("proc.rss_peak_kb", "Peak resident set size")
    peak.set(max(peak.value, end.peak_rss_kb))
    _metrics.gauge("proc.cpu_user_s", "User CPU seconds").set(end.cpu_user_s)
    _metrics.gauge("proc.cpu_sys_s", "System CPU seconds").set(end.cpu_sys_s)

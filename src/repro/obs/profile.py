"""A dependency-free sampling profiler with flamegraph-ready output.

A background daemon thread wakes ``hz`` times per second, snapshots the
interpreter's frame stacks via :func:`sys._current_frames`, and counts
collapsed call stacks.  Because it *samples* instead of tracing every
call, overhead is a few percent at the default rate and -- critically
for this codebase -- it never touches RNG state, so profiling a
generation run cannot change the generated world.

Two exporters:

* :meth:`SamplingProfiler.collapsed` -- one ``frame;frame;frame count``
  line per distinct stack, the standard *collapsed stack* format that
  ``flamegraph.pl`` / speedscope / inferno consume directly;
* :meth:`SamplingProfiler.top` / :meth:`~SamplingProfiler.render_top` --
  per-function self/total sample counts and estimated seconds, the
  quick "where did the time go" table.

CLI surface: ``repro profile [--out PATH] [--hz N] <command ...>`` runs
any other subcommand under the profiler, prints the top table to stderr
and, with ``--out``, writes the collapsed stacks to ``PATH``.

By default only the thread that called :meth:`start` is sampled (the
pipeline runs every stage on one thread of one process).  Pass
``all_threads=True`` to sample every interpreter thread.
"""

from __future__ import annotations

import collections
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SamplingProfiler"]

#: Default sampling rate.  A prime keeps samples from phase-locking with
#: periodic work (the classic profiler-beat artifact).
DEFAULT_HZ = 97


def _frame_label(frame) -> str:
    """``module.qualname`` label for one stack frame."""
    code = frame.f_code
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    qualname = getattr(code, "co_qualname", code.co_name)
    return f"{module}.{qualname}"


class SamplingProfiler:
    """Periodic stack sampler; use via ``with`` or ``start()``/``stop()``."""

    def __init__(self, hz: int = DEFAULT_HZ, all_threads: bool = False) -> None:
        if hz < 1:
            raise ValueError(f"hz must be >= 1, got {hz}")
        self.hz = hz
        self.all_threads = all_threads
        self._samples: collections.Counter = collections.Counter()
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._target_ident: Optional[int] = None
        self._started_at: Optional[float] = None
        self._elapsed = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Begin sampling the calling thread (or all, per the ctor)."""
        if self._thread is not None:
            return self
        self._target_ident = threading.get_ident()
        self._stop_event.clear()
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=2.0)
        self._thread = None
        if self._started_at is not None:
            self._elapsed += time.monotonic() - self._started_at
            self._started_at = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _sample_loop(self) -> None:
        interval = 1.0 / self.hz
        own_ident = threading.get_ident()
        while not self._stop_event.wait(interval):
            frames = sys._current_frames()
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                if not self.all_threads and ident != self._target_ident:
                    continue
                stack = self._unwind(frame)
                if stack:
                    self._samples[stack] += 1

    @staticmethod
    def _unwind(frame) -> Tuple[str, ...]:
        labels: List[str] = []
        while frame is not None:
            labels.append(_frame_label(frame))
            frame = frame.f_back
        return tuple(reversed(labels))

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------

    @property
    def sample_count(self) -> int:
        """Total stack samples captured."""
        return sum(self._samples.values())

    @property
    def elapsed(self) -> float:
        """Wall seconds the profiler has been running."""
        live = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        return self._elapsed + live

    def seconds_per_sample(self) -> float:
        """Wall seconds one sample represents (elapsed / samples)."""
        count = self.sample_count
        return (self.elapsed / count) if count else 0.0

    def collapsed(self) -> str:
        """Flamegraph-ready collapsed stacks: ``a;b;c <count>`` lines."""
        lines = [
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(self._samples.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def top(self, n: int = 15) -> List[Dict[str, Any]]:
        """Hottest functions by self-samples (leaf frames).

        Each row reports ``self``/``total`` sample counts and their
        wall-second estimates; ``total`` counts every sample in which
        the function appears anywhere on the stack (recursion counted
        once per sample).
        """
        self_samples: collections.Counter = collections.Counter()
        total_samples: collections.Counter = collections.Counter()
        for stack, count in self._samples.items():
            self_samples[stack[-1]] += count
            for label in set(stack):
                total_samples[label] += count
        per_sample = self.seconds_per_sample()
        rows = [
            {
                "function": label,
                "self": count,
                "total": total_samples[label],
                "self_seconds": count * per_sample,
                "total_seconds": total_samples[label] * per_sample,
            }
            for label, count in self_samples.most_common(n)
        ]
        return rows

    def render_top(self, n: int = 15) -> str:
        """The :meth:`top` table as aligned text."""
        rows = self.top(n)
        if not rows:
            return "(no samples)"
        lines = [
            f"{'self_s':>8s} {'total_s':>8s} {'self%':>6s}  function",
        ]
        count = self.sample_count
        for row in rows:
            pct = 100.0 * row["self"] / count if count else 0.0
            lines.append(
                f"{row['self_seconds']:8.3f} {row['total_seconds']:8.3f} "
                f"{pct:5.1f}%  {row['function']}"
            )
        lines.append(
            f"({count} samples over {self.elapsed:.2f}s at {self.hz}Hz)"
        )
        return "\n".join(lines)

    def write_collapsed(self, path) -> Path:
        """Write :meth:`collapsed` output to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.collapsed(), encoding="utf-8")
        return path

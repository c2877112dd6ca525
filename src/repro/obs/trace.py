"""Lightweight hierarchical tracing spans.

Design goals, in priority order:

1. **Near-zero cost when disabled.**  :func:`span` checks one boolean
   and returns a shared no-op context manager -- no allocation, no clock
   read.  Instrumented hot paths pay a single attribute load per call.
2. **Side-effect-free instrumentation.**  Spans read the monotonic
   clock only; they never touch RNG state, so tracing cannot perturb a
   generated world (guarded by a ``content_digest`` test).
3. **Hierarchy without plumbing.**  A thread-local stack links each
   span to its parent automatically, so ``with trace.span("stage"):``
   nests correctly wherever it runs; each thread grows its own tree.

Usage::

    from repro.obs import trace

    trace.enable()
    with trace.span("pipeline.build_session", scale=0.01) as sp:
        ...
        sp.set_attribute("events", len(dataset.events))
    print(trace.render_tree())

Exporters: :func:`to_dicts` (JSON-ready span trees) and
:func:`render_tree` (pretty indented tree with durations and
attributes).  :func:`reset` drops recorded spans between runs.
With :mod:`repro.obs.resources` enabled, every recorded span additionally carries resource attributes (RSS
delta, peak RSS, CPU time, GC pauses) sampled at span entry and exit.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from . import resources as _resources

__all__ = [
    "Span",
    "Tracer",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "finished_spans",
    "get_tracer",
    "render_tree",
    "reset",
    "span",
    "to_dicts",
    "traced",
]


@dataclasses.dataclass
class Span:
    """One timed, attributed node of a trace tree."""

    name: str
    attributes: Dict[str, Any] = dataclasses.field(default_factory=dict)
    children: List["Span"] = dataclasses.field(default_factory=list)
    start: float = 0.0
    end: Optional[float] = None
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now if the span is still open)."""
        end = self.end if self.end is not None else time.monotonic()
        return end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one key/value attribute to this span."""
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict of this span and its subtree."""
        return {
            "name": self.name,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "error": self.error,
            "children": [child.to_dict() for child in self.children],
        }

    def iter(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its subtree."""
        yield self
        for child in self.children:
            yield from child.iter()


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass


_NOOP = _NoopSpan()


class _SpanHandle:
    """Context manager binding one live :class:`Span` to a tracer."""

    __slots__ = ("_tracer", "span", "_resources")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._resources = None

    def __enter__(self) -> Span:
        self._tracer._push(self.span)
        if _resources.enabled():
            self._resources = _resources.begin_span()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.error = exc_type.__name__
        if self._resources is not None:
            _resources.finish_span(self._resources, self.span)
        self.span.end = time.monotonic()
        self._tracer._pop(self.span)
        return False


class Tracer:
    """Collects span trees; one instance is usually shared per process.

    Disabled by default.  Each thread maintains its own open-span stack,
    so concurrently traced threads produce separate trees; completed
    root spans from every thread land in one shared, lock-protected
    list (:meth:`finished_spans`).
    """

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        # Every thread's open-span stack, keyed by thread ident, so
        # reset() can clear stacks it does not own (the thread-local
        # alone is only reachable from its own thread).  Entries for
        # dead threads are pruned on reset; a recycled ident is simply
        # re-bound on that thread's first push.
        self._stacks: Dict[int, List[Span]] = {}

    # ------------------------------------------------------------------
    # Switches
    # ------------------------------------------------------------------

    def enable(self) -> None:
        """Start recording spans."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording spans (`span()` becomes a shared no-op)."""
        self._enabled = False

    @property
    def enabled(self) -> bool:
        """Whether spans are currently recorded."""
        return self._enabled

    def reset(self) -> None:
        """Drop all finished spans and every thread's dangling open stack.

        Stacks are cleared *in place* so the thread-local reference each
        thread still holds sees the cleared list: a span left open by
        another thread can no longer graft stale parents onto the next
        run's spans.
        """
        alive = {thread.ident for thread in threading.enumerate()}
        with self._lock:
            self._finished = []
            for ident, stack in list(self._stacks.items()):
                del stack[:]
                if ident not in alive:
                    del self._stacks[ident]

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span; use as ``with tracer.span("name", key=value):``.

        When the tracer is disabled this returns a shared no-op context
        manager without touching the clock or allocating.
        """
        if not self._enabled:
            return _NOOP
        return _SpanHandle(
            self,
            Span(name=name, attributes=attributes, start=time.monotonic()),
        )

    def traced(
        self, name: Optional[str] = None, **attributes: Any
    ) -> Callable:
        """Decorator form of :meth:`span` (span named after the function
        unless ``name`` is given); enablement is checked per call."""

        def decorate(func: Callable) -> Callable:
            span_name = name or func.__qualname__

            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any):
                if not self._enabled:
                    return func(*args, **kwargs)
                with self.span(span_name, **attributes):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    def current_span(self):
        """The innermost open span of this thread (no-op span if none)."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return _NOOP
        return stack[-1]

    # ------------------------------------------------------------------
    # Stack maintenance (called by _SpanHandle)
    # ------------------------------------------------------------------

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        if not stack:
            with self._lock:
                self._finished.append(span)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        """Completed root spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def find(self, name: str) -> Optional[Span]:
        """First recorded span (at any depth) with ``name``, or None."""
        for root in self.finished_spans():
            for node in root.iter():
                if node.name == name:
                    return node
        return None

    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-ready list of recorded root span trees."""
        return [root.to_dict() for root in self.finished_spans()]

    def render_tree(self) -> str:
        """Pretty indented tree of all recorded spans::

            pipeline.build_session                      2.134s
            |- synth.generate_world                     1.420s  shards=8
            |  |- synth.merge_shards                    0.112s
            |- telemetry.collect                        0.301s
        """
        lines: List[str] = []
        for root in self.finished_spans():
            self._render(root, "", lines)
        return "\n".join(lines)

    def _render(self, span: Span, indent: str, lines: List[str]) -> None:
        label = f"{indent}{span.name}"
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
        suffix = f"  {attrs}" if attrs else ""
        if span.error:
            suffix += f"  !{span.error}"
        lines.append(f"{label:<48s} {span.duration:9.3f}s{suffix}")
        for child in span.children:
            self._render(child, indent + "  ", lines)


#: Process-wide default tracer used by all built-in instrumentation.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _TRACER


def span(name: str, **attributes: Any):
    """Open a span on the default tracer (no-op while disabled)."""
    if not _TRACER._enabled:
        return _NOOP
    return _TRACER.span(name, **attributes)


def traced(name: Optional[str] = None, **attributes: Any) -> Callable:
    """Decorator: trace a function on the default tracer."""
    return _TRACER.traced(name, **attributes)


def current_span():
    """Innermost open span on the default tracer (no-op span if none)."""
    return _TRACER.current_span()


def enable() -> None:
    """Enable the default tracer."""
    _TRACER.enable()


def disable() -> None:
    """Disable the default tracer."""
    _TRACER.disable()


def enabled() -> bool:
    """Whether the default tracer records spans."""
    return _TRACER.enabled


def reset() -> None:
    """Drop everything the default tracer has recorded."""
    _TRACER.reset()


def finished_spans() -> List[Span]:
    """Completed root spans of the default tracer."""
    return _TRACER.finished_spans()


def to_dicts() -> List[Dict[str, Any]]:
    """JSON-ready span trees from the default tracer."""
    return _TRACER.to_dicts()


def render_tree() -> str:
    """Pretty span tree from the default tracer."""
    return _TRACER.render_tree()

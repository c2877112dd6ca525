"""Pipeline observability: spans, metrics, resources, profiling, gates.

Dependency-free building blocks, all stdlib + ``/proc``:

* :mod:`repro.obs.trace` -- hierarchical wall-time spans (context
  manager + decorator API, thread-safe, no-op when disabled) with JSON
  and pretty-tree exporters;
* :mod:`repro.obs.metrics` -- a process-wide registry of counters,
  gauges and histograms, exportable as JSON or Prometheus text;
* :mod:`repro.obs.resources` -- opt-in per-span RSS/CPU/GC accounting
  read from ``/proc/self`` and ``getrusage`` (``--resources``);
* :mod:`repro.obs.profile` -- a sampling profiler with collapsed-stack
  (flamegraph-ready) and top-N exporters (``repro profile``);
* :mod:`repro.obs.regress` -- the bench trajectory + perf-regression
  gate behind ``repro bench --check``;
* :mod:`repro.obs.manifest` -- the provenance record (config digest,
  git revision, wall time, metrics, spans) written alongside exports.

Every pipeline stage (generation, caching, collection, labeling, rule
learning, classification) reports through these; enable tracing with
``repro.obs.trace.enable()`` or the ``--trace`` CLI flag.  Metrics are
always collected -- instrument updates are cheap -- and instrumentation
never touches RNG state, so observability cannot change a generated
world (see ``tests/obs/test_instrumentation.py``).  The full story is
in ``docs/observability.md``.
"""

from . import manifest, metrics, profile, regress, resources, trace
from .manifest import RunManifest, build_manifest, load_manifest
from .metrics import MetricsRegistry, get_registry
from .profile import SamplingProfiler
from .trace import Span, Tracer, get_tracer

__all__ = [
    "MetricsRegistry",
    "RunManifest",
    "SamplingProfiler",
    "Span",
    "Tracer",
    "build_manifest",
    "get_registry",
    "get_tracer",
    "load_manifest",
    "manifest",
    "metrics",
    "profile",
    "regress",
    "resources",
    "trace",
]

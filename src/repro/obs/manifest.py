"""Run manifests: what ran, on what, for how long.

A :class:`RunManifest` is the provenance record written alongside every
metrics/trace export: the exact world config (and its content digest),
execution knobs (jobs), the code identity (git revision, package and
interpreter versions), wall time, the metrics snapshot and the recorded
span trees.  Two runs with equal ``config_digest`` produced bit-identical
worlds -- the manifest is what lets BENCH_*.json numbers, traces and
exported corpora be traced back to the run that made them.

Round-trips losslessly through JSON (:meth:`RunManifest.write` /
:func:`load_manifest`).
"""

from __future__ import annotations

import dataclasses
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import metrics as _metrics
from . import trace as _trace

__all__ = ["RunManifest", "build_manifest", "git_revision", "load_manifest"]


def _git(args: List[str], cwd: Optional[Path]):
    """A finished ``git`` process, or ``None`` if git could not run."""
    try:
        return subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=str(cwd) if cwd else None,
        )
    except (OSError, subprocess.SubprocessError):
        return None


def git_revision(cwd: Optional[Path] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout.

    ``<sha>-dirty`` when a tracked file under the checkout's ``src/``
    differs from ``HEAD``: the code that ran is then not that commit's.
    Untracked files and edits outside ``src/`` do not count, because
    regenerating the paper artifacts rewrites tracked files under
    ``benchmarks/output/``.
    """
    head = _git(["rev-parse", "HEAD"], cwd)
    if head is None or head.returncode != 0 or not head.stdout.strip():
        return None
    revision = head.stdout.strip()
    diff = _git(["diff", "--quiet", "HEAD", "--", ":(top)src"], cwd)
    if diff is not None and diff.returncode == 1:
        return revision + "-dirty"
    return revision


def _versions() -> Dict[str, str]:
    versions = {
        "python": platform.python_version(),
    }
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    try:
        from .. import __version__

        versions["repro"] = __version__
    except ImportError:  # pragma: no cover
        pass
    return versions


@dataclasses.dataclass
class RunManifest:
    """Provenance record of one pipeline run."""

    command: str
    created_at: str
    config: Dict[str, Any]
    config_digest: Optional[str]
    jobs: Optional[int]
    git_rev: Optional[str]
    versions: Dict[str, str]
    wall_seconds: float
    metrics: Dict[str, Any]
    spans: List[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output."""
        fields = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: payload[key] for key in fields})

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: Path) -> Path:
        """Write the manifest as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path


def build_manifest(
    command: str,
    config: Optional[Any] = None,
    jobs: Optional[int] = None,
    wall_seconds: float = 0.0,
    registry: Optional[_metrics.MetricsRegistry] = None,
    tracer: Optional[_trace.Tracer] = None,
) -> RunManifest:
    """Assemble a manifest for the run that just happened.

    ``config`` is a :class:`~repro.synth.world.WorldConfig` (or ``None``
    for commands that never built a world); the registry and tracer
    default to the process-wide instances the instrumentation writes to.
    """
    registry = registry if registry is not None else _metrics.get_registry()
    tracer = tracer if tracer is not None else _trace.get_tracer()
    config_dict: Dict[str, Any] = {}
    digest: Optional[str] = None
    if config is not None:
        from ..synth.cache import config_digest

        config_dict = dataclasses.asdict(config)
        digest = config_digest(config)
    return RunManifest(
        command=command,
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        config=config_dict,
        config_digest=digest,
        jobs=jobs,
        git_rev=git_revision(),
        versions=_versions(),
        wall_seconds=wall_seconds,
        metrics=registry.snapshot(),
        spans=tracer.to_dicts(),
    )


def load_manifest(path: Path) -> RunManifest:
    """Read a manifest previously written with :meth:`RunManifest.write`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return RunManifest.from_dict(payload)

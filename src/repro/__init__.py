"""Reproduction of *Exploring the Long Tail of (Malicious) Software
Downloads* (Rahbarinia, Balduzzi, Perdisci -- DSN 2017).

The package provides:

* :mod:`repro.telemetry` -- the download-event data model, software agent
  and collection server (Section II-A);
* :mod:`repro.synth` -- a calibrated synthetic telemetry world standing in
  for the proprietary vendor dataset (see DESIGN.md);
* :mod:`repro.labeling` -- the simulated AV/whitelist ecosystem, the
  five-way labeling policy, AVclass-style family labeling and the AVType
  behavior-type extractor (Sections II-B/II-C);
* :mod:`repro.analysis` -- every measurement of Sections III-V;
* :mod:`repro.core` -- the paper's contribution: Table XV features, PART
  rule learning, conflict-rejecting classification and the Tables
  XVI/XVII evaluation harness (Section VI);
* :mod:`repro.reporting` -- text renderings of every table and figure;
* :mod:`repro.validation` -- the statistical fidelity gate: seed-swept
  goodness-of-fit of generated worlds against their calibration targets
  (``repro validate`` on the command line).

Quickstart::

    from repro import build_session, WorldConfig
    from repro.reporting import render_table_i

    session = build_session(WorldConfig(seed=7, scale=0.02))
    print(render_table_i(session.labeled))
"""

from . import analysis, core, labeling, obs, reporting, synth, telemetry
from . import validation
from .core.evaluation import full_evaluation
from .labeling.ground_truth import LabeledDataset, label_world
from .labeling.labels import (
    Browser,
    FileLabel,
    MalwareType,
    ProcessCategory,
    UrlLabel,
)
from .pipeline import (
    Session,
    build_session,
    clear_all_caches,
    validate_session,
)
from .synth.world import World, WorldConfig, generate_dataset
from .telemetry.dataset import TelemetryDataset

__version__ = "1.0.0"

__all__ = [
    "Browser",
    "FileLabel",
    "LabeledDataset",
    "MalwareType",
    "ProcessCategory",
    "Session",
    "TelemetryDataset",
    "UrlLabel",
    "World",
    "WorldConfig",
    "__version__",
    "analysis",
    "build_session",
    "clear_all_caches",
    "core",
    "full_evaluation",
    "generate_dataset",
    "label_world",
    "labeling",
    "obs",
    "reporting",
    "synth",
    "telemetry",
    "validate_session",
    "validation",
]

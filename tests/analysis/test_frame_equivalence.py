"""Columnar-vs-scalar equivalence for every analysis output.

Each table function of :mod:`repro.analysis` (the columnar product
path) is run next to its same-named twin in :mod:`.scalar_reference`
(the event-by-event oracle), and the results must be *equal*, not just
close: the columnar code replicates the scalar float expressions,
median semantics and tie-breaking exactly.  Checked over the shared
session fixtures and over randomized hand-built datasets that hit the
corners the synthetic worlds do not (unlabeled table-only files,
missing families, empty classes).
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro import analysis
from repro.analysis import frame as frame_mod
from repro.labeling.avtype import TypeExtraction
from repro.labeling.ground_truth import LabeledDataset
from repro.labeling.labels import FileLabel, MalwareType, UrlLabel
from repro.labeling.whitelists import AlexaService
from repro.telemetry.dataset import TelemetryDataset
from repro.telemetry.events import (
    COLLECTION_DAYS,
    DownloadEvent,
    FileRecord,
    ProcessRecord,
)

from . import scalar_reference

#: Modules whose exported functions build the frame or shape results
#: rather than compute a paper table or figure.
_INFRASTRUCTURE = {"repro.analysis.common", "repro.analysis.frame"}

#: Every table/figure function ``repro.analysis`` exports -- one per
#: output the reporting layer renders.
ANALYSES = sorted(
    name for name in analysis.__all__
    if inspect.isfunction(getattr(analysis, name))
    and getattr(analysis, name).__module__ not in _INFRASTRUCTURE
)


def _args(function, labeled, alexa):
    if "alexa" in inspect.signature(function).parameters:
        return labeled, alexa
    return (labeled,)


_PROCESS_NAMES = (
    "chrome.exe", "firefox.exe", "opera.exe", "safari.exe",
    "svchost.exe", "explorer.exe", "javaw.exe", "acrord32.exe",
    "updater.exe", "dropper_helper.exe",
)

_FILE_LABELS = (
    [FileLabel.BENIGN] * 4
    + [FileLabel.MALICIOUS] * 3
    + [FileLabel.UNKNOWN] * 4
    + [FileLabel.LIKELY_BENIGN, FileLabel.LIKELY_MALICIOUS]
)


def random_labeled(seed: int, n_files: int = 60, n_machines: int = 20,
                   n_processes: int = 12, n_events: int = 400):
    """A randomized labeled dataset plus a matching Alexa service.

    Labeled files are always a subset of event files (the scalar
    ``file_prevalence`` lookup raises on never-downloaded hashes); a few
    extra table-only *unlabeled* files exercise the frame's ``ABSENT``
    paths instead.
    """
    rng = random.Random(seed)
    domains = [f"host{i}.site{i % 5}.example" for i in range(10)]
    signers = [f"Signer {i}" for i in range(6)] + [None] * 6
    packers = ["upx", "aspack", "themida"] + [None] * 5
    families = ["zbot", "sality", "firseria", None]

    event_files = {}
    for i in range(n_files):
        sha = f"file{i:04d}"
        event_files[sha] = FileRecord(
            sha, f"app{i}.exe", rng.randint(512, 5_000_000),
            signer=rng.choice(signers), packer=rng.choice(packers),
        )
    table_only = {
        f"orphan{i}": FileRecord(f"orphan{i}", f"orphan{i}.exe", 99)
        for i in range(3)
    }
    processes = {
        f"proc{i:02d}": ProcessRecord(
            f"proc{i:02d}", _PROCESS_NAMES[i % len(_PROCESS_NAMES)],
            signer=rng.choice(signers),
        )
        for i in range(n_processes)
    }

    events = []
    for i in range(n_events):
        sha = rng.choice(list(event_files))
        domain = rng.choice(domains)
        events.append(DownloadEvent(
            file_sha1=sha,
            machine_id=f"m{rng.randrange(n_machines):03d}",
            process_sha1=f"proc{rng.randrange(n_processes):02d}",
            url=f"http://{domain}/get/{rng.randrange(40)}",
            timestamp=rng.uniform(0.0, COLLECTION_DAYS - 0.01),
        ))
    # Only downloaded files are labeled; orphans stay out of every map.
    used = {event.file_sha1 for event in events}
    file_labels = {sha: rng.choice(_FILE_LABELS) for sha in used}
    file_types = {}
    file_families = {}
    for sha, label in file_labels.items():
        if label != FileLabel.MALICIOUS:
            continue
        if rng.random() < 0.85:  # some malicious files stay untyped
            file_types[sha] = TypeExtraction(
                rng.choice(list(MalwareType)), "voting", {})
        if rng.random() < 0.7:  # and some have no AVclass family
            file_families[sha] = rng.choice(families)
    # The real labeler labels every active process and URL (the scalar
    # summary indexes them unconditionally), so the random one does too.
    process_labels = {
        sha: rng.choice((FileLabel.BENIGN, FileLabel.BENIGN,
                         FileLabel.MALICIOUS, FileLabel.UNKNOWN))
        for sha in processes
    }
    process_types = {
        sha: TypeExtraction(rng.choice(list(MalwareType)), "voting", {})
        for sha, label in process_labels.items()
        if label == FileLabel.MALICIOUS and rng.random() < 0.5
    }
    url_labels = {
        event.url: rng.choice(list(UrlLabel)) for event in events
    }
    labeled = LabeledDataset(
        dataset=TelemetryDataset(
            events, {**event_files, **table_only}, processes
        ),
        file_labels=file_labels,
        process_labels=process_labels,
        url_labels=url_labels,
        file_types=file_types,
        process_types=process_types,
        file_families=file_families,
        type_resolution_fractions={},
    )
    # Ranks spanning every Alexa bucket; sites 3/4 stay unranked.
    alexa = AlexaService({
        "site0.example": 500,
        "site1.example": 5_000,
        "site2.example": 50_000,
    })
    return labeled, alexa


def assert_equivalent(labeled, alexa):
    frame_mod.clear_frame_cache()
    failures = []
    for name in ANALYSES:
        product = getattr(analysis, name)
        args = _args(product, labeled, alexa)
        if product(*args) != getattr(scalar_reference, name)(*args):
            failures.append(name)
    assert not failures, f"columnar != scalar for: {', '.join(failures)}"


def _parameters(function):
    return [
        (parameter.name, parameter.default)
        for parameter in inspect.signature(function).parameters.values()
    ]


class TestOracleCoverage:
    def test_every_analysis_has_a_scalar_reference(self):
        # A new table cannot ship without a reference, the oracle keeps
        # no reference for a table that no longer exists, and each pair
        # takes the same arguments with the same defaults.
        assert ANALYSES == sorted(scalar_reference.__all__)
        for name in ANALYSES:
            assert _parameters(getattr(analysis, name)) == _parameters(
                getattr(scalar_reference, name)
            ), name


class TestSessionEquivalence:
    def test_small_session(self, small_session):
        assert_equivalent(small_session.labeled, small_session.alexa)

    def test_medium_session(self, medium_session):
        assert_equivalent(medium_session.labeled, medium_session.alexa)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_datasets(self, seed):
        labeled, alexa = random_labeled(seed)
        assert_equivalent(labeled, alexa)

    def test_sparse_dataset(self):
        # Few events over many files: most per-class masks are tiny or
        # empty, exercising the empty-group branches.
        labeled, alexa = random_labeled(99, n_files=40, n_events=8)
        assert_equivalent(labeled, alexa)

    def test_single_machine_single_event(self):
        labeled, alexa = random_labeled(7, n_files=2, n_machines=1,
                                        n_processes=1, n_events=1)
        assert_equivalent(labeled, alexa)

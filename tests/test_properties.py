"""Cross-module property-based tests (hypothesis)."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Instance
from repro.core.part import PartLearner
from repro.labeling.av import LEADING_ENGINES
from repro.labeling.avtype import TypeExtractor
from repro.labeling.labels import MalwareType
from repro.telemetry.agent import ReportingPolicy
from repro.telemetry.collector import CollectionServer
from repro.telemetry.events import DownloadEvent

# ----------------------------------------------------------------------
# Collector: the sigma invariant holds for arbitrary event streams
# ----------------------------------------------------------------------

_event_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),   # file id
        st.integers(min_value=0, max_value=12),  # machine id
        st.booleans(),                           # executed
    ),
    min_size=0,
    max_size=120,
)


class TestCollectorInvariants:
    @given(stream=_event_stream, sigma=st.integers(min_value=1, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_sigma_never_exceeded(self, stream, sigma):
        server = CollectionServer(ReportingPolicy(sigma=sigma))
        reported = []
        for position, (file_id, machine_id, executed) in enumerate(stream):
            event = DownloadEvent(
                file_sha1=f"{file_id:040d}",
                machine_id=f"M{machine_id}",
                process_sha1="p" * 40,
                url="http://dl.example.net/f.exe",
                timestamp=float(position),
                executed=executed,
            )
            if server.submit(event):
                reported.append(event)
        machines_per_file = defaultdict(set)
        for event in reported:
            machines_per_file[event.file_sha1].add(event.machine_id)
            assert event.executed
        for machines in machines_per_file.values():
            assert len(machines) <= sigma

    @given(stream=_event_stream)
    @settings(max_examples=40, deadline=None)
    def test_stats_conservation(self, stream):
        server = CollectionServer()
        for position, (file_id, machine_id, executed) in enumerate(stream):
            server.submit(
                DownloadEvent(
                    file_sha1=f"{file_id:040d}",
                    machine_id=f"M{machine_id}",
                    process_sha1="p" * 40,
                    url="http://dl.example.net/f.exe",
                    timestamp=float(position),
                    executed=executed,
                )
            )
        stats = server.stats
        assert stats.observed == len(stream)
        assert stats.reported + stats.dropped == stats.observed


# ----------------------------------------------------------------------
# Rule selection: tau and coverage thresholds are monotone
# ----------------------------------------------------------------------

_SCHEMA = ("a", "b")

_instances = st.lists(
    st.tuples(
        st.sampled_from(["u", "v", "w"]),
        st.sampled_from(["x", "y"]),
        st.sampled_from(["benign", "malicious"]),
    ),
    min_size=2,
    max_size=50,
).map(
    lambda rows: [
        Instance(values=(a, b), label=label) for a, b, label in rows
    ]
)


class TestRuleSelectionMonotonicity:
    @given(instances=_instances)
    @settings(max_examples=40, deadline=None)
    def test_larger_tau_selects_superset(self, instances):
        rules = PartLearner(_SCHEMA).fit(instances)
        low = set(id(rule) for rule in rules.select(0.0))
        high = set(id(rule) for rule in rules.select(0.5))
        assert low <= high

    @given(instances=_instances)
    @settings(max_examples=40, deadline=None)
    def test_larger_coverage_selects_subset(self, instances):
        rules = PartLearner(_SCHEMA).fit(instances)
        loose = set(id(r) for r in rules.select(1.0, min_coverage=1))
        strict = set(id(r) for r in rules.select(1.0, min_coverage=4))
        assert strict <= loose


# ----------------------------------------------------------------------
# Type extraction: total, deterministic, label-order independent
# ----------------------------------------------------------------------

_detections = st.dictionaries(
    keys=st.sampled_from(LEADING_ENGINES),
    values=st.sampled_from(
        [
            "Trojan.Zbot",
            "Downloader-ABC!123",
            "Artemis!FF00",
            "Ransom.Locky",
            "PWS:Win32/Zbot.A",
            "not-a-virus:AdWare.Win32.Agent.x",
            "TROJ_DLOADRXYZ.A",
            "Backdoor:Win32/Fynloski",
        ]
    ),
    max_size=5,
)


class TestTypeExtractionProperties:
    @given(detections=_detections)
    @settings(max_examples=100, deadline=None)
    def test_always_returns_a_type(self, detections):
        result = TypeExtractor().extract(detections)
        assert isinstance(result.mtype, MalwareType)
        assert result.resolution in (
            "unanimous", "voting", "specificity", "manual",
        )

    @given(detections=_detections)
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, detections):
        first = TypeExtractor().extract(detections)
        second = TypeExtractor().extract(detections)
        assert first.mtype == second.mtype
        assert first.resolution == second.resolution

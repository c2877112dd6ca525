"""Seven-month download-event simulation.

Drives the machine population through download *storylines*:

* background downloads initiated by the machine's benign processes
  (browser / Windows / Java / Acrobat / other), with per-context file
  label mixes (Tables I and X) adjusted by machine-profile and browser
  risk (Table XI);
* **infection chains**: an executed malicious (or latently malicious
  unknown) file becomes a downloading process of its own and fetches
  follow-up files according to the Table XII type-transition matrix, with
  inter-download delays from the Figure 5 models;
* raw-event chaff -- never-executed downloads and whitelisted-update
  downloads -- that exists solely so the agent/collector reporting
  filters (Section II-A) operate on real inputs.

The simulator emits *raw* events; :func:`repro.telemetry.collector.collect`
applies the reporting policy to produce the analyzed dataset.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..labeling.labels import (
    FileLabel,
    MalwareType,
    ProcessCategory,
)
from ..telemetry.events import (
    COLLECTION_DAYS,
    DownloadEvent,
    FileRecord,
    ProcessRecord,
)
from . import calibration, domains as domain_categories
from .behavior import (
    CATEGORY_EVENT_MEANS,
    PROFILES,
    ProcessEcosystem,
    risk_adjusted_mix,
)
from .distributions import CategoricalSampler
from .domains import DomainEcosystem
from .entities import (
    BenignProcess,
    SyntheticDomain,
    SyntheticFile,
    SyntheticMachine,
)
from .files import FilePool

#: Label mix for downloads performed by latently benign ("gray") unknown
#: processes -- e.g. unknown updaters fetching further unknown components.
_GRAY_PROCESS_MIX: Dict[FileLabel, float] = {
    FileLabel.UNKNOWN: 0.92,
    FileLabel.BENIGN: 0.02,
    FileLabel.LIKELY_BENIGN: 0.02,
    FileLabel.MALICIOUS: 0.03,
    FileLabel.LIKELY_MALICIOUS: 0.01,
}

_GRAY_PROCESS_SAMPLER = CategoricalSampler(
    list(_GRAY_PROCESS_MIX.keys()), list(_GRAY_PROCESS_MIX.values())
)

#: Maximum infection-chain recursion depth (dropper -> bot -> ... ).
_MAX_CHAIN_DEPTH = 3

_CONTEXT_OF_CATEGORY: Dict[ProcessCategory, str] = {
    ProcessCategory.BROWSER: "browser",
    ProcessCategory.WINDOWS: "windows",
    ProcessCategory.JAVA: "java",
    ProcessCategory.ACROBAT: "acrobat",
    ProcessCategory.OTHER: "other",
}


@dataclasses.dataclass
class RawCorpus:
    """Everything the simulation produced, before reporting filters."""

    events: List[DownloadEvent]
    files: Dict[str, SyntheticFile]
    benign_processes: Dict[str, BenignProcess]
    spawned_process_shas: Set[str]
    machines: List[SyntheticMachine]
    domains: List[SyntheticDomain]

    def file_records(self) -> Dict[str, FileRecord]:
        """Telemetry-visible file metadata table."""
        return {sha: file.record for sha, file in self.files.items()}

    def process_records(self) -> Dict[str, ProcessRecord]:
        """Telemetry-visible process metadata table.

        Spawned processes are executed downloaded files; their records are
        derived from the file records (same hash, same signature).
        """
        records = {
            sha: process.record for sha, process in self.benign_processes.items()
        }
        for sha in self.spawned_process_shas:
            records[sha] = self.files[sha].process_record
        return records


class Simulator:
    """Generates the raw event stream for a built world."""

    def __init__(
        self,
        rng: np.random.Generator,
        machines: List[SyntheticMachine],
        processes: ProcessEcosystem,
        domains: DomainEcosystem,
        pool: FilePool,
        unknown_latent_malicious: float = (
            calibration.UNKNOWN_LATENT_MALICIOUS_FRACTION
        ),
    ) -> None:
        self._rng = rng
        self._machines = machines
        self._processes = processes
        self._domains = domains
        self._pool = pool
        self._unknown_latent_malicious = unknown_latent_malicious
        self._events: List[DownloadEvent] = []
        self._spawned: Set[str] = set()
        self._type_samplers: Dict[str, CategoricalSampler] = {}
        self._label_samplers: Dict[
            Tuple[str, float, float], CategoricalSampler
        ] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> RawCorpus:
        """Simulate every machine and return the raw corpus."""
        for machine in self._machines:
            self._simulate_machine(machine)
        self._events.sort(key=lambda event: event.timestamp)
        return RawCorpus(
            events=self._events,
            files=self._pool.all_files,
            benign_processes={
                process.sha1: process
                for process in self._processes.all_processes()
            },
            spawned_process_shas=self._spawned,
            machines=self._machines,
            domains=self._domains.all_domains(),
        )

    # ------------------------------------------------------------------
    # Machine storylines
    # ------------------------------------------------------------------

    def _simulate_machine(self, machine: SyntheticMachine) -> None:
        rng = self._rng
        _, risk, volume, unknown_scale = PROFILES[machine.profile]
        engagement = calibration.CATEGORY_ENGAGEMENT
        draws = rng.random(len(engagement))
        engaged = [
            category
            for (category, prob), draw in zip(engagement.items(), draws)
            if draw < prob
        ]
        if not engaged:
            # Every monitored machine reported at least one event.
            engaged.append(ProcessCategory.BROWSER)
        for category in engaged:
            mean = CATEGORY_EVENT_MEANS[category] * volume
            count = max(1, int(rng.poisson(mean)))
            timestamps = rng.uniform(
                machine.start_day, machine.end_day, size=count
            )
            for timestamp in timestamps.tolist():
                self._background_event(
                    machine, category, timestamp, risk, unknown_scale
                )

    def _background_event(
        self,
        machine: SyntheticMachine,
        category: ProcessCategory,
        timestamp: float,
        risk: float,
        unknown_scale: float,
    ) -> None:
        rng = self._rng
        context = _CONTEXT_OF_CATEGORY[category]
        effective_risk = risk
        if category == ProcessCategory.BROWSER:
            effective_risk *= calibration.BROWSER_RISK[machine.browser]
        label = self._sample_label(context, effective_risk, unknown_scale)
        latent_malicious, latent_type = self._latent_nature(context, label)
        exploit_context = category in (
            ProcessCategory.JAVA,
            ProcessCategory.ACROBAT,
        ) or (category == ProcessCategory.WINDOWS and latent_malicious)
        via_browser = category == ProcessCategory.BROWSER
        file = self._pool.draw(
            rng,
            label,
            latent_malicious,
            latent_type,
            lambda: self._domains.sample_for_file(
                rng, label, latent_malicious, latent_type, exploit_context
            ),
            via_browser,
            channel="exploit" if exploit_context else "web",
        )
        process = self._processes.sample(
            rng,
            category,
            machine.browser if via_browser else None,
        )
        self._emit(file, machine, process.sha1, timestamp)
        self._maybe_chaff(machine, process.sha1, timestamp)
        self._maybe_chain(machine, file, timestamp, depth=1)
        self._maybe_aftermath(machine, file, timestamp)

    # ------------------------------------------------------------------
    # Infection chains (Tables XII, Figure 5)
    # ------------------------------------------------------------------

    def _maybe_chain(
        self,
        machine: SyntheticMachine,
        source: SyntheticFile,
        timestamp: float,
        depth: int,
    ) -> None:
        if depth > _MAX_CHAIN_DEPTH:
            return
        rng = self._rng
        if source.latent_malicious:
            source_type = source.latent_type or MalwareType.UNDEFINED
            spawn_prob = calibration.CHAIN_SPAWN_PROB[source_type]
            if source.observed_class == FileLabel.UNKNOWN:
                spawn_prob *= calibration.UNKNOWN_CHAIN_DAMP
            length_mean = calibration.CHAIN_LENGTH_MEAN[source_type]
        elif source.observed_class == FileLabel.UNKNOWN:
            source_type = None
            spawn_prob = calibration.GRAY_CHAIN_SPAWN_PROB
            length_mean = 1.2
        elif source.observed_class in (
            FileLabel.LIKELY_BENIGN,
            FileLabel.LIKELY_MALICIOUS,
        ):
            # Short-history software occasionally fetches components too;
            # this is what puts likely-class processes into Table I.
            source_type = None
            spawn_prob = 0.10
            length_mean = 1.1
        else:
            return
        if rng.random() >= spawn_prob:
            return
        self._spawned.add(source.sha1)
        count = max(1, int(rng.poisson(length_mean)))
        delay_model = self._delay_model_for(source_type)
        for _ in range(count):
            delta = delay_model.sample(rng)
            follow_time = timestamp + delta
            if follow_time >= COLLECTION_DAYS:
                continue
            if source_type is not None:
                label = self._sample_label("malproc", risk=1.0)
                latent_malicious, latent_type = self._latent_nature_malproc(
                    source_type, label
                )
            else:
                label = _GRAY_PROCESS_SAMPLER.sample(rng)
                latent_malicious, latent_type = self._latent_nature(
                    "browser", label
                )
            file = self._pool.draw(
                rng,
                label,
                latent_malicious,
                latent_type,
                lambda: self._domains.sample_for_file(
                    rng, label, latent_malicious, latent_type,
                    exploit_context=False,
                ),
                via_browser=False,
            )
            self._emit(file, machine, source.sha1, follow_time)
            self._maybe_chain(machine, file, follow_time, depth + 1)

    def _maybe_aftermath(
        self,
        machine: SyntheticMachine,
        source: SyntheticFile,
        timestamp: float,
    ) -> None:
        """Post-infection malware arrivals through the machine's own
        processes (Figure 5): a compromised machine keeps downloading
        malware via its browser and exploited system processes."""
        if not source.latent_malicious:
            return
        rng = self._rng
        source_type = source.latent_type or MalwareType.UNDEFINED
        prob, delay_key = calibration.AFTERMATH_PROB[source_type]
        if source.observed_class == FileLabel.UNKNOWN:
            prob *= calibration.AFTERMATH_UNKNOWN_DAMP
        if rng.random() >= prob:
            return
        delay_model = calibration.DELAY_MODELS[delay_key]
        count = 1 + int(rng.poisson(calibration.AFTERMATH_LENGTH_MEAN))
        for _ in range(count):
            follow_time = timestamp + delay_model.sample(rng)
            if follow_time >= COLLECTION_DAYS:
                continue
            label = (
                FileLabel.MALICIOUS
                if rng.random() < calibration.AFTERMATH_MALICIOUS_PROB
                else FileLabel.UNKNOWN
            )
            latent_type = self._context_type_sampler(
                f"malproc:{source_type.value}"
            ).sample(rng)
            use_browser = rng.random() < 0.7
            category = (
                ProcessCategory.BROWSER if use_browser
                else ProcessCategory.WINDOWS
            )
            process = self._processes.sample(
                rng, category, machine.browser if use_browser else None
            )
            file = self._pool.draw(
                rng,
                label,
                True,
                latent_type,
                lambda: self._domains.sample_for_file(
                    rng, label, True, latent_type,
                    exploit_context=not use_browser,
                ),
                via_browser=use_browser,
                channel="web" if use_browser else "exploit",
            )
            self._emit(file, machine, process.sha1, follow_time)
            self._maybe_chain(machine, file, follow_time, depth=2)

    @staticmethod
    def _delay_model_for(source_type: Optional[MalwareType]):
        if source_type == MalwareType.ADWARE:
            return calibration.DELAY_MODELS["adware"]
        if source_type == MalwareType.PUP:
            return calibration.DELAY_MODELS["pup"]
        if source_type is None:
            return calibration.DELAY_MODELS["benign"]
        return calibration.DELAY_MODELS["dropper"]

    # ------------------------------------------------------------------
    # Raw-event chaff for the reporting filters
    # ------------------------------------------------------------------

    def _maybe_chaff(
        self, machine: SyntheticMachine, process_sha: str, timestamp: float
    ) -> None:
        rng = self._rng
        if rng.random() < calibration.RAW_NOT_EXECUTED_RATE:
            label = self._sample_label("browser", risk=0.6)
            latent_malicious, latent_type = self._latent_nature("browser", label)
            file = self._pool.draw(
                rng,
                label,
                latent_malicious,
                latent_type,
                lambda: self._domains.sample_for_file(
                    rng, label, latent_malicious, latent_type
                ),
                via_browser=True,
            )
            self._events.append(
                DownloadEvent(
                    file_sha1=file.sha1,
                    machine_id=machine.machine_id,
                    process_sha1=process_sha,
                    url=file.url,
                    timestamp=min(
                        COLLECTION_DAYS - 1e-9, timestamp + rng.uniform(0, 0.2)
                    ),
                    executed=False,
                )
            )
        if rng.random() < calibration.RAW_WHITELISTED_RATE:
            file = self._pool.draw(
                rng,
                FileLabel.BENIGN,
                False,
                None,
                lambda: self._domains.sample(rng, domain_categories.UPDATE),
                via_browser=False,
                channel="update",
            )
            self._events.append(
                DownloadEvent(
                    file_sha1=file.sha1,
                    machine_id=machine.machine_id,
                    process_sha1=process_sha,
                    url=file.url,
                    timestamp=min(
                        COLLECTION_DAYS - 1e-9, timestamp + rng.uniform(0, 0.5)
                    ),
                    executed=True,
                )
            )

    # ------------------------------------------------------------------
    # Sampling helpers
    # ------------------------------------------------------------------

    def _emit(
        self,
        file: SyntheticFile,
        machine: SyntheticMachine,
        process_sha: str,
        timestamp: float,
    ) -> None:
        self._events.append(
            DownloadEvent(
                file_sha1=file.sha1,
                machine_id=machine.machine_id,
                process_sha1=process_sha,
                url=file.url,
                timestamp=timestamp,
                executed=True,
            )
        )

    def _sample_label(
        self, context: str, risk: float, unknown_scale: float = 1.0
    ) -> FileLabel:
        # The (context, risk, unknown_scale) space is tiny -- machine
        # profiles x browser risks -- so the adjusted mixes are built once
        # and the per-event cost is a single cached categorical draw.
        key = (context, risk, unknown_scale)
        sampler = self._label_samplers.get(key)
        if sampler is None:
            mix = calibration.CONTEXT_LABEL_MIXES[context]
            if abs(risk - 1.0) > 1e-9 or abs(unknown_scale - 1.0) > 1e-9:
                mix = risk_adjusted_mix(mix, risk, unknown_scale)
            labels = list(mix.keys())
            sampler = CategoricalSampler(
                labels, [mix[label] for label in labels]
            )
            self._label_samplers[key] = sampler
        return sampler.sample(self._rng)

    def _context_type_sampler(self, context: str) -> CategoricalSampler:
        sampler = self._type_samplers.get(context)
        if sampler is None:
            if context.startswith("malproc:"):
                source_type = MalwareType(context.split(":", 1)[1])
                mix = calibration.MALICIOUS_PROCESS_TARGETS[source_type].type_mix
            else:
                category = {
                    "browser": ProcessCategory.BROWSER,
                    "windows": ProcessCategory.WINDOWS,
                    "java": ProcessCategory.JAVA,
                    "acrobat": ProcessCategory.ACROBAT,
                    "other": ProcessCategory.OTHER,
                }[context]
                mix = calibration.PROCESS_CATEGORY_TARGETS[category].type_mix
            types = list(mix.keys())
            sampler = CategoricalSampler(types, [mix[t] for t in types])
            self._type_samplers[context] = sampler
        return sampler

    def _latent_nature(self, context: str, label: FileLabel):
        """Latent (malicious?, type) for a background download."""
        rng = self._rng
        if label.is_malicious_side:
            return True, self._context_type_sampler(context).sample(rng)
        if label == FileLabel.UNKNOWN:
            if rng.random() < self._unknown_latent_malicious:
                return True, self._context_type_sampler(context).sample(rng)
            return False, None
        return False, None

    def _latent_nature_malproc(
        self, source_type: MalwareType, label: FileLabel
    ):
        """Latent nature for a malicious-process (chain) download."""
        rng = self._rng
        context = f"malproc:{source_type.value}"
        if label.is_malicious_side:
            return True, self._context_type_sampler(context).sample(rng)
        if label == FileLabel.UNKNOWN:
            if rng.random() < self._unknown_latent_malicious:
                return True, self._context_type_sampler(context).sample(rng)
            return False, None
        return False, None

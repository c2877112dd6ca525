"""Entity dataclasses of the synthetic telemetry world.

The synthetic world distinguishes *latent* truth (what a file really is)
from *observed* truth (what the simulated AV ecosystem will eventually
know).  ``SyntheticFile.observed_class`` is the label the ground-truth
pipeline is constructed to produce; ``latent_malicious``/``latent_type``
are the underlying nature, which exists even for files whose observed
class is ``UNKNOWN``.  Analyses consume only observed labels, mirroring
the paper; tests and the bonus validation may consult latent truth.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..labeling.labels import Browser, FileLabel, MalwareType, ProcessCategory
from ..telemetry.events import FileRecord, ProcessRecord


@dataclasses.dataclass(slots=True)
class SyntheticFile:
    """A downloadable software file in the synthetic world."""

    sha1: str
    file_name: str
    size_bytes: int
    observed_class: FileLabel
    latent_malicious: bool
    latent_type: Optional[MalwareType]
    family: Optional[str]
    signer: Optional[str]
    ca: Optional[str]
    packer: Optional[str]
    home_domain: str
    url: str
    via_browser: bool
    target_prevalence: int
    realized_prevalence: int = 0

    def __post_init__(self) -> None:
        if self.latent_malicious and self.latent_type is None:
            raise ValueError(f"latent-malicious file {self.sha1} needs a type")
        if self.observed_class == FileLabel.MALICIOUS and not self.latent_malicious:
            raise ValueError(
                f"file {self.sha1} observed malicious but latently benign"
            )
        if self.signer is None and self.ca is not None:
            raise ValueError(f"file {self.sha1} has a CA without a signer")

    @property
    def record(self) -> FileRecord:
        """The telemetry-visible metadata of this file."""
        return FileRecord(
            sha1=self.sha1,
            file_name=self.file_name,
            size_bytes=self.size_bytes,
            signer=self.signer,
            ca=self.ca,
            packer=self.packer,
        )

    @property
    def process_record(self) -> ProcessRecord:
        """Metadata of the process this file becomes when executed."""
        return ProcessRecord(
            sha1=self.sha1,
            executable_name=self.file_name,
            signer=self.signer,
            ca=self.ca,
            packer=self.packer,
        )

    @property
    def open_capacity(self) -> int:
        """Remaining downloads before the file hits its target prevalence."""
        return self.target_prevalence - self.realized_prevalence


@dataclasses.dataclass(frozen=True, slots=True)
class BenignProcess:
    """A pre-existing benign client process version (Table X ecosystem)."""

    sha1: str
    executable_name: str
    category: ProcessCategory
    browser: Optional[Browser]
    signer: Optional[str]
    ca: Optional[str]

    @property
    def record(self) -> ProcessRecord:
        """The telemetry-visible metadata of this process."""
        return ProcessRecord(
            sha1=self.sha1,
            executable_name=self.executable_name,
            signer=self.signer,
            ca=self.ca,
            packer=None,
        )


@dataclasses.dataclass(frozen=True, slots=True)
class SyntheticDomain:
    """A download domain with its reputation context."""

    name: str
    category: str
    alexa_rank: Optional[int]
    popularity_weight: float
    url_benign: bool = False
    url_malicious: bool = False

    def __post_init__(self) -> None:
        if self.url_benign and self.url_malicious:
            raise ValueError(f"domain {self.name} cannot be both URL classes")
        if self.alexa_rank is not None and self.alexa_rank < 1:
            raise ValueError(f"domain {self.name} has invalid rank")


@dataclasses.dataclass(slots=True)
class SyntheticMachine:
    """A monitored customer machine."""

    machine_id: str
    profile: str
    start_day: float
    end_day: float
    browser: Browser

    def __post_init__(self) -> None:
        if self.end_day <= self.start_day:
            raise ValueError(
                f"machine {self.machine_id} active window is empty "
                f"({self.start_day} .. {self.end_day})"
            )

    @property
    def active_days(self) -> float:
        """Length of the machine's monitored window."""
        return self.end_day - self.start_day

"""The eight classification features of Table XV.

Every downloaded file is described by easy-to-measure properties of the
file itself (signer, CA, packer), of the process that downloaded it
(signer, CA, packer, type), and of the download URL's domain (Alexa-rank
bin).  All eight features are categorical; absences are explicit values
(``<unsigned>``, ``<unpacked>``, ``unranked``) because they are
informative -- e.g. the paper's rule "IF (file is not signed) AND
(downloading process is Acrobat Reader) -> malicious".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import FileLabel, categorize_process_name
from ..labeling.whitelists import AlexaService
from ..telemetry.events import DownloadEvent

#: Feature names, in Table XV order.
FEATURE_NAMES: Tuple[str, ...] = (
    "file_signer",
    "file_ca",
    "file_packer",
    "proc_signer",
    "proc_ca",
    "proc_packer",
    "proc_type",
    "alexa_bin",
)

#: Feature-name -> attribute-index lookup (``FEATURE_NAMES.index`` is an
#: O(n) list scan; ``value()`` sits on hot introspection paths).
_FEATURE_INDEX: Dict[str, int] = {
    name: index for index, name in enumerate(FEATURE_NAMES)
}

#: Sentinel feature values for absent properties.
UNSIGNED = "<unsigned>"
UNPACKED = "<unpacked>"
NO_CA = "<no-ca>"

#: Alexa-rank bins (the paper's rules quantize ranks, e.g. "between
#: 10,000 and 100,000" and "above 100K").
ALEXA_BINS: Tuple[str, ...] = (
    "top-1k",
    "1k-10k",
    "10k-100k",
    "100k-1m",
    "unranked",
)


def alexa_bin(rank: Optional[int]) -> str:
    """Quantize an Alexa rank into the bins used by the rules."""
    if rank is None:
        return "unranked"
    if rank <= 1_000:
        return "top-1k"
    if rank <= 10_000:
        return "1k-10k"
    if rank <= 100_000:
        return "10k-100k"
    if rank <= 1_000_000:
        return "100k-1m"
    return "unranked"


@dataclasses.dataclass(frozen=True)
class FeatureVector:
    """One file's eight Table XV feature values."""

    file_sha1: str
    values: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(FEATURE_NAMES):
            raise ValueError(
                f"expected {len(FEATURE_NAMES)} features, got "
                f"{len(self.values)}"
            )

    def value(self, feature: str) -> str:
        """Value of one named feature."""
        index = _FEATURE_INDEX.get(feature)
        if index is None:
            raise ValueError(f"unknown feature {feature!r}")
        return self.values[index]

    def as_dict(self) -> Dict[str, str]:
        """Feature-name -> value mapping."""
        return dict(zip(FEATURE_NAMES, self.values))


def process_type_value(process_label: FileLabel, executable_name: str) -> str:
    """Table XV "process's type": the benign category, or the process
    label when the process is not known benign."""
    if process_label == FileLabel.BENIGN:
        return categorize_process_name(executable_name).value
    return f"{process_label.value}-process"


class FeatureExtractor:
    """Extracts Table XV feature vectors from a labeled dataset.

    A file downloaded several times is described by its *first* reported
    download event: the process and URL of the initial appearance, which
    is also all an online deployment would have at decision time.
    """

    def __init__(self, labeled: LabeledDataset, alexa: AlexaService) -> None:
        self._labeled = labeled
        self._alexa = alexa

    def extract(self, file_sha1: str, event: DownloadEvent) -> FeatureVector:
        """Feature vector of one file as downloaded by ``event``."""
        file_record = self._labeled.dataset.files[file_sha1]
        proc_record = self._labeled.dataset.processes[event.process_sha1]
        process_label = self._labeled.process_labels[event.process_sha1]
        return FeatureVector(
            file_sha1=file_sha1,
            values=(
                file_record.signer or UNSIGNED,
                file_record.ca or NO_CA,
                file_record.packer or UNPACKED,
                proc_record.signer or UNSIGNED,
                proc_record.ca or NO_CA,
                proc_record.packer or UNPACKED,
                process_type_value(
                    process_label, proc_record.executable_name
                ),
                alexa_bin(self._alexa.rank(event.e2ld)),
            ),
        )

    def extract_all(
        self, labels: Optional[List[FileLabel]] = None
    ) -> Dict[str, FeatureVector]:
        """Feature vectors for every file (optionally filtered by label)."""
        wanted = set(labels) if labels is not None else None
        vectors: Dict[str, FeatureVector] = {}
        for sha1, event in _first_events(self._labeled).items():
            if wanted is not None and self._labeled.file_labels[sha1] not in wanted:
                continue
            vectors[sha1] = self.extract(sha1, event)
        return vectors


def _first_events(labeled: LabeledDataset) -> Dict[str, DownloadEvent]:
    """First reported event per file -- cached on the labeled dataset."""
    return labeled.first_events()

"""Training data model for the rule learner.

Instances carry the eight Table XV feature values plus a binary class
(``benign`` / ``malicious``).  Every attribute is categorical, so a
schema is just the tuple of feature names; the learners split and the
rules test each attribute by equality of ``str()`` values.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..labeling.ground_truth import LabeledDataset
from ..labeling.labels import FileLabel
from ..labeling.whitelists import AlexaService
from .features import FEATURE_NAMES, FeatureExtractor, FeatureVector

#: Class labels, in deterministic order.
BENIGN_CLASS = "benign"
MALICIOUS_CLASS = "malicious"
CLASSES: Tuple[str, str] = (BENIGN_CLASS, MALICIOUS_CLASS)


#: The Table XV schema: the names of all eight (categorical) features.
TABLE_XV_SCHEMA: Tuple[str, ...] = FEATURE_NAMES


@dataclasses.dataclass(frozen=True)
class Instance:
    """One training/test instance."""

    values: Tuple
    label: str
    sha1: Optional[str] = None

    def __post_init__(self) -> None:
        if self.label not in CLASSES:
            raise ValueError(f"unknown class label {self.label!r}")


@dataclasses.dataclass
class TrainingSet:
    """A schema plus a list of instances."""

    schema: Tuple[str, ...]
    instances: List[Instance]

    def __post_init__(self) -> None:
        width = len(self.schema)
        for instance in self.instances:
            if len(instance.values) != width:
                raise ValueError(
                    f"instance width {len(instance.values)} != schema "
                    f"width {width}"
                )

    def __len__(self) -> int:
        return len(self.instances)

    def class_counts(self) -> Counter:
        """Counter of class labels."""
        return Counter(instance.label for instance in self.instances)

    @classmethod
    def from_labeled(
        cls,
        labeled: LabeledDataset,
        alexa: AlexaService,
        exclude_sha1s: Optional[set] = None,
    ) -> "TrainingSet":
        """Build instances from a dataset's confidently labeled files.

        Likely-class files are excluded (the paper keeps only ``benign``
        and ``malicious`` ground truth).  ``exclude_sha1s`` removes files
        also present in the training window so that train/test
        intersections stay empty (Section VI-D).
        """
        extractor = FeatureExtractor(labeled, alexa)
        vectors = extractor.extract_all(
            labels=[FileLabel.BENIGN, FileLabel.MALICIOUS]
        )
        excluded = exclude_sha1s or set()
        instances = [
            Instance(
                values=vector.values,
                label=(
                    MALICIOUS_CLASS
                    if labeled.file_labels[sha1] == FileLabel.MALICIOUS
                    else BENIGN_CLASS
                ),
                sha1=sha1,
            )
            for sha1, vector in sorted(vectors.items())
            if sha1 not in excluded
        ]
        return cls(schema=TABLE_XV_SCHEMA, instances=instances)


def unknown_vectors(
    labeled: LabeledDataset,
    alexa: AlexaService,
    exclude_sha1s: Optional[set] = None,
) -> Dict[str, FeatureVector]:
    """Feature vectors of a dataset's truly unknown files."""
    extractor = FeatureExtractor(labeled, alexa)
    vectors = extractor.extract_all(labels=[FileLabel.UNKNOWN])
    if exclude_sha1s:
        return {
            sha1: vector
            for sha1, vector in vectors.items()
            if sha1 not in exclude_sha1s
        }
    return vectors

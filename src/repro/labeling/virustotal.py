"""Simulated VirusTotal-style scanning service.

The paper queries VirusTotal close to the download time and again almost
two years later, so that engines have had time to develop signatures
(Section II-B).  This simulator reproduces that *label availability
process*:

* every detection carries an ``available_from_day`` drawn from a
  signature-development-lag distribution, so early queries see fewer
  detections than late ones;
* files whose observed class is ``MALICIOUS`` are eventually detected by
  at least one trusted engine; ``LIKELY_MALICIOUS`` files only ever by
  less-reliable engines; benign-side files have clean reports whose
  first/last-scan span encodes the 14-day "likely benign" rule; truly
  ``UNKNOWN`` files have no report at all.

A report is a pure function of the service seed, the file hash and the
file's first-seen day (the per-file RNG is seeded from the seed and the
hash), so every query rebuilds an equal report and re-runs agree.  No
report is cached: the labeler keeps each hash's verdict, type and family
and drops the report.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Dict, Mapping, Optional

import numpy as np

from ..synth.entities import SyntheticFile
from .av import (
    ALL_ENGINES,
    LEADING_ENGINES,
    TRUSTED_ENGINES,
    synthesize_label,
)
from .labels import FileLabel, MalwareType

#: Query day representing "almost two years after collection".
FINAL_QUERY_DAY = 730.0

#: Mean signature-development lag, in days, for trusted engines.
_TRUSTED_LAG_MEAN = 45.0

#: Mean signature lag for the less-reliable engines.
_OTHER_LAG_MEAN = 90.0

#: Detection probabilities once signatures exist.
_LEADING_DETECT_PROB = 0.75
_TRUSTED_EXTRA_DETECT_PROB = 0.55
_OTHER_DETECT_PROB = 0.45

#: Given a leading-engine detection of a typed file: probability the label
#: carries the true type keyword / a generic keyword / a wrong type.
#: Tuned so the Section II-C resolution mix (44% unanimous, 28% voting,
#: 23% specificity, 5% manual) approximately reproduces.
_TRUE_TYPE_PROB = 0.60
_GENERIC_PROB = 0.28

#: Probability a benign file has a VT report at all (the rest are covered
#: by the file whitelist).
_BENIGN_REPORT_PROB = 0.85

#: Confusion weights for wrong-type noise: proportional to the Table II
#: type mix over the concrete (non-UNDEFINED) types.
_CONFUSION_MIX = (
    (MalwareType.DROPPER, 0.227),
    (MalwareType.PUP, 0.168),
    (MalwareType.ADWARE, 0.154),
    (MalwareType.TROJAN, 0.113),
    (MalwareType.BANKER, 0.009),
    (MalwareType.BOT, 0.006),
    (MalwareType.FAKEAV, 0.005),
    (MalwareType.RANSOMWARE, 0.003),
    (MalwareType.WORM, 0.001),
    (MalwareType.SPYWARE, 0.0004),
)


@dataclasses.dataclass(frozen=True, slots=True)
class EngineDetection:
    """One engine's (eventual) detection of a file."""

    engine: str
    label: str
    available_from_day: float


@dataclasses.dataclass(frozen=True, slots=True)
class VTReport:
    """The full scan history of one file."""

    sha1: str
    first_scan_day: float
    last_scan_day: float
    detections: tuple  # Tuple[EngineDetection, ...]

    def detections_at(self, day: float) -> Dict[str, str]:
        """Engine -> label for detections whose signatures exist by ``day``."""
        return {
            detection.engine: detection.label
            for detection in self.detections
            if detection.available_from_day <= day
        }

    @property
    def scan_span_days(self) -> float:
        """Days between the first and last scan of the file."""
        return self.last_scan_day - self.first_scan_day


class VirusTotalSimulator:
    """Builds deterministic VT reports for synthetic files, one per query.

    Nothing is cached: a repeated :meth:`query` rebuilds an equal report,
    so the simulator holds no more memory after labeling a corpus than
    before it.
    """

    def __init__(
        self,
        files: Mapping[str, SyntheticFile],
        seed: int = 0,
        first_seen: Optional[Mapping[str, float]] = None,
    ) -> None:
        """``first_seen`` maps sha1 -> day the file first appeared in the
        wild; it anchors scan times and signature lags.  Files without an
        entry default to day 0."""
        self._files = files
        self._seed = seed
        self._first_seen = first_seen or {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def query(self, sha1: str, day: float = FINAL_QUERY_DAY) -> Optional[VTReport]:
        """Return the file's report as visible at ``day``, or ``None``.

        ``None`` means the scanning service has never seen the file --
        the situation behind the paper's *unknown* label.  The report's
        ``detections_at(day)`` gives the detections whose signatures exist
        by the query day.
        """
        file = self._files.get(sha1)
        report = self._build_report(file) if file is not None else None
        if report is None or report.first_scan_day > day:
            return None
        return report

    # ------------------------------------------------------------------
    # Report construction
    # ------------------------------------------------------------------

    def _rng_for(self, sha1: str) -> np.random.Generator:
        digest = zlib.crc32(f"{self._seed}:{sha1}".encode())
        return np.random.default_rng(digest)

    def _build_report(self, file: SyntheticFile) -> Optional[VTReport]:
        rng = self._rng_for(file.sha1)
        first_seen = float(self._first_seen.get(file.sha1, 0.0))
        observed = file.observed_class

        if observed == FileLabel.UNKNOWN:
            return None
        if observed == FileLabel.BENIGN:
            if rng.random() >= _BENIGN_REPORT_PROB:
                return None  # covered by the whitelist instead
            first = first_seen + rng.uniform(0, 10)
            span = rng.uniform(30, 600)
            return VTReport(file.sha1, first, first + span, ())
        if observed == FileLabel.LIKELY_BENIGN:
            first = first_seen + rng.uniform(0, 10)
            span = rng.uniform(0, 13.5)
            return VTReport(file.sha1, first, first + span, ())
        if observed == FileLabel.LIKELY_MALICIOUS:
            return self._likely_malicious_report(file, rng, first_seen)
        return self._malicious_report(file, rng, first_seen)

    def _likely_malicious_report(
        self, file: SyntheticFile, rng: np.random.Generator, first_seen: float
    ) -> VTReport:
        other_engines = [e for e in ALL_ENGINES if e not in TRUSTED_ENGINES]
        count = int(rng.integers(1, 4))
        picks = rng.choice(len(other_engines), size=count, replace=False)
        detections = tuple(
            EngineDetection(
                engine=other_engines[int(index)],
                label=synthesize_label(
                    other_engines[int(index)], None, file.family, rng
                ),
                available_from_day=first_seen + rng.exponential(_OTHER_LAG_MEAN),
            )
            for index in picks
        )
        first = first_seen + rng.uniform(0, 20)
        return VTReport(
            file.sha1, first, first + rng.uniform(100, 650), detections
        )

    def _malicious_report(
        self, file: SyntheticFile, rng: np.random.Generator, first_seen: float
    ) -> VTReport:
        mtype = file.latent_type or MalwareType.UNDEFINED
        detections = []
        for engine in LEADING_ENGINES:
            if rng.random() >= _LEADING_DETECT_PROB:
                continue
            label_type = self._noisy_type(mtype, rng)
            detections.append(
                EngineDetection(
                    engine=engine,
                    label=synthesize_label(engine, label_type, file.family, rng),
                    available_from_day=(
                        first_seen + rng.exponential(_TRUSTED_LAG_MEAN)
                    ),
                )
            )
        for engine in TRUSTED_ENGINES[len(LEADING_ENGINES):]:
            if rng.random() < _TRUSTED_EXTRA_DETECT_PROB:
                detections.append(
                    EngineDetection(
                        engine=engine,
                        label=synthesize_label(engine, mtype, file.family, rng),
                        available_from_day=(
                            first_seen + rng.exponential(_TRUSTED_LAG_MEAN)
                        ),
                    )
                )
        for engine in ALL_ENGINES[len(TRUSTED_ENGINES):]:
            if rng.random() < _OTHER_DETECT_PROB:
                detections.append(
                    EngineDetection(
                        engine=engine,
                        label=synthesize_label(engine, mtype, file.family, rng),
                        available_from_day=(
                            first_seen + rng.exponential(_OTHER_LAG_MEAN)
                        ),
                    )
                )
        if not any(d.engine in TRUSTED_ENGINES for d in detections):
            # The paper's malicious label requires a trusted-engine
            # detection; the ecosystem always develops one eventually.
            engine = LEADING_ENGINES[int(rng.integers(0, len(LEADING_ENGINES)))]
            detections.append(
                EngineDetection(
                    engine=engine,
                    label=synthesize_label(engine, mtype, file.family, rng),
                    available_from_day=(
                        first_seen + rng.exponential(_TRUSTED_LAG_MEAN)
                    ),
                )
            )
        first = first_seen + rng.uniform(0, 15)
        return VTReport(
            file.sha1,
            first,
            first + rng.uniform(100, 650),
            tuple(detections),
        )

    @staticmethod
    def _noisy_type(
        true_type: MalwareType, rng: np.random.Generator
    ) -> Optional[MalwareType]:
        """Apply the vendor type-labeling noise model.

        Wrong-type errors are drawn proportionally to the overall type mix
        (Table II): engines confuse malware with *common* classes, so rare
        classes like banker are not swamped by misattributed droppers.
        """
        if true_type == MalwareType.UNDEFINED:
            return None
        roll = rng.random()
        if roll < _TRUE_TYPE_PROB:
            return true_type
        if roll < _TRUE_TYPE_PROB + _GENERIC_PROB:
            return None
        candidates = [
            (mtype, weight)
            for mtype, weight in _CONFUSION_MIX
            if mtype != true_type
        ]
        total = sum(weight for _, weight in candidates)
        threshold = rng.random() * total
        cumulative = 0.0
        for mtype, weight in candidates:
            cumulative += weight
            if threshold < cumulative:
                return mtype
        return candidates[-1][0]

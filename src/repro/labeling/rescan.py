"""Incremental ground-truth refresh via scheduled VT rescans.

The paper labels once, "almost two years" after collection, when engine
signatures have matured (Section II-B).  A *streaming* deployment cannot
wait: it labels each file when first seen and then re-queries the
scanning service on a cadence, absorbing label flips as signatures land
(``UNKNOWN`` -> ``LIKELY_MALICIOUS`` -> ``MALICIOUS``...).  The VT Deep
Dive literature calls this rescan-driven label flapping; Maat measures
detection quality as labels mature.  :class:`RescanScheduler` is the
small state machine that drives it:

* :meth:`track` registers a hash when its first event is ingested and
  records the label visible *right now*;
* :meth:`advance` processes all rescans due by the current stream clock,
  emitting a :class:`LabelChange` for every flip;
* ``MALICIOUS`` is terminal (the paper's trusted-engine verdict never
  recants), other labels keep rescanning until ``mature_after_days``
  has passed since first seen, after which the label is frozen.

The scheduler is deterministic: rescan days depend only on first-seen
times and the interval, and the underlying
:class:`~repro.labeling.virustotal.VirusTotalSimulator` is seeded.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from .ground_truth import GroundTruthLabeler
from .labels import FileLabel

__all__ = ["LabelChange", "RescanScheduler"]

#: Default days between rescans of a not-yet-terminal hash.
DEFAULT_RESCAN_INTERVAL_DAYS = 7.0

#: Default age at which a non-malicious label stops being rescanned.
DEFAULT_MATURE_AFTER_DAYS = 120.0


@dataclasses.dataclass(frozen=True)
class LabelChange:
    """One observed ground-truth flip for a tracked hash."""

    sha1: str
    day: float
    old: FileLabel
    new: FileLabel


class RescanScheduler:
    """Periodic re-labeling of streamed hashes as VT signatures mature."""

    def __init__(
        self,
        labeler: GroundTruthLabeler,
        interval_days: float = DEFAULT_RESCAN_INTERVAL_DAYS,
        mature_after_days: float = DEFAULT_MATURE_AFTER_DAYS,
    ) -> None:
        if interval_days <= 0:
            raise ValueError("rescan interval must be positive")
        if mature_after_days < 0:
            raise ValueError("maturity horizon must be non-negative")
        self._labeler = labeler
        self.interval_days = interval_days
        self.mature_after_days = mature_after_days
        self._labels: Dict[str, FileLabel] = {}
        self._first_seen: Dict[str, float] = {}
        # (due_day, sequence, sha1); the sequence breaks timestamp ties
        # deterministically by tracking order.
        self._due: List[Tuple[float, int, str]] = []
        self._sequence = 0
        self.queries = 0
        self.changes: List[LabelChange] = []

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------

    def track(self, sha1: str, day: float) -> FileLabel:
        """Start tracking a hash first seen on ``day``.

        Returns the label visible at ``day`` (idempotent: re-tracking a
        known hash just returns its current label).
        """
        existing = self._labels.get(sha1)
        if existing is not None:
            return existing
        label = self._labeler.label_hash_at(sha1, day)
        self.queries += 1
        self._labels[sha1] = label
        self._first_seen[sha1] = day
        if not self._terminal(sha1, label, day):
            self._schedule(sha1, day + self.interval_days)
        return label

    def _schedule(self, sha1: str, due_day: float) -> None:
        heapq.heappush(self._due, (due_day, self._sequence, sha1))
        self._sequence += 1

    def _terminal(self, sha1: str, label: FileLabel, day: float) -> bool:
        if label is FileLabel.MALICIOUS:
            return True
        return day - self._first_seen[sha1] >= self.mature_after_days

    # ------------------------------------------------------------------
    # Clock advance
    # ------------------------------------------------------------------

    def advance(self, now: float) -> List[LabelChange]:
        """Run every rescan due by ``now``; returns the label flips."""
        flips: List[LabelChange] = []
        while self._due and self._due[0][0] <= now:
            due_day, _, sha1 = heapq.heappop(self._due)
            old = self._labels[sha1]
            new = self._labeler.label_hash_at(sha1, due_day)
            self.queries += 1
            if new is not old:
                change = LabelChange(sha1=sha1, day=due_day, old=old, new=new)
                flips.append(change)
                self.changes.append(change)
                self._labels[sha1] = new
            if not self._terminal(sha1, new, due_day):
                self._schedule(sha1, due_day + self.interval_days)
        if flips:
            obs_metrics.counter(
                "rescan.label_flips", "Ground-truth flips seen by rescans"
            ).inc(len(flips))
        return flips

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def tracked(self) -> int:
        """Number of hashes being tracked."""
        return len(self._labels)

    @property
    def pending(self) -> int:
        """Number of rescans still scheduled."""
        return len(self._due)

    def label_of(self, sha1: str) -> Optional[FileLabel]:
        """The current (latest-rescan) label of a tracked hash."""
        return self._labels.get(sha1)

"""Columnar rule evaluation: codes, masks, and row dedup.

The paper's classifier (Section VI-D) applies a few hundred conjunctive
rules of equality tests over eight *low-cardinality categorical*
features.  The single-row reference
(:meth:`repro.core.classifier.RuleBasedClassifier.classify`) walks every
rule per instance -- `O(instances x rules x conditions)` Python-level
string comparisons.  This module turns batch scoring into a handful of
NumPy broadcasts:

1. **Interning** -- a :class:`FeatureCodec` maps each feature column's
   string values to dense integer codes, so a batch of feature tuples
   becomes an ``(n, width)`` int32 code matrix.  Values are compared by
   their ``str()`` form, exactly matching the scalar
   ``Condition.matches`` semantics.
2. **Compiled rule masks** -- each rule becomes per-feature boolean
   "allowed code" masks (:func:`compile_rules`); matching all rules
   against all rows is ``mask[:, codes[:, a]]`` gathers AND-ed across
   the restricted features (:func:`match_codes`), no Python inner loop.
3. **Row dedup** -- with eight low-cardinality categoricals, identical
   feature tuples are the common case.  :meth:`ColumnarRuleEvaluator
   .match_rows` collapses the batch with :func:`numpy.unique` so each
   distinct tuple is matched and resolved exactly once.

The module deliberately imports nothing from :mod:`repro.core.classifier`
(which imports it): conflict policies arrive as their plain value strings
and decisions leave as small integer arrays.  Every batch entry point of
the classifier takes this path; its per-instance ``classify`` walk, and
the per-instance TP/FP accounting in ``tests/core/scalar_reference.py``,
are the references ``tests/core/test_columnar.py`` compares against,
decision for decision and count for count, under every
:class:`~repro.core.classifier.ConflictPolicy`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dataset import MALICIOUS_CLASS
from .rules import Rule

#: Label codes produced by :func:`resolve_matches`.
LABEL_NONE = -1
LABEL_BENIGN = 0
LABEL_MALICIOUS = 1


class FeatureCodec:
    """Interns categorical feature values into dense integer codes.

    One growing vocabulary per feature column.  Encoding a batch interns
    any previously unseen value, so the codec never rejects a row; the
    ``version`` counter bumps whenever a vocabulary grows, which tells
    compiled rule masks (sized to the vocabularies at compile time) to
    re-materialize.
    """

    def __init__(self) -> None:
        self._width: Optional[int] = None
        self._vocabs: List[Dict[str, int]] = []
        self._version = 0

    @property
    def width(self) -> Optional[int]:
        """Row width, fixed by the first encoded batch."""
        return self._width

    @property
    def version(self) -> int:
        """Bumped every time any vocabulary grows."""
        return self._version

    def vocab_sizes(self) -> Tuple[int, ...]:
        """Current vocabulary size per feature column."""
        return tuple(len(vocab) for vocab in self._vocabs)

    def values(self, attribute: int) -> List[str]:
        """The interned values of one column, indexed by code."""
        return list(self._vocabs[attribute])

    def code_of(self, attribute: int, value: object) -> Optional[int]:
        """The interned code of one value, or ``None`` if never seen.

        Lookup only -- unlike :meth:`encode_rows` this never interns.
        """
        if self._width is None or not 0 <= attribute < self._width:
            return None
        return self._vocabs[attribute].get(str(value))

    def encode_rows(self, rows: Sequence[Sequence]) -> "np.ndarray":
        """Intern a batch of feature tuples into an ``(n, width)`` matrix.

        The first batch fixes the row width; later batches must match it
        (a :class:`ValueError` otherwise).
        """
        if self._width is None:
            self._width = len(rows[0]) if rows else 0
            self._vocabs = [{} for _ in range(self._width)]
        width = self._width
        if any(len(row) != width for row in rows):
            raise ValueError(
                f"row width mismatch: codec encodes {width}-wide rows"
            )
        count = len(rows)
        codes = np.empty((count, width), dtype=np.int32)
        grew = False
        for attribute in range(width):
            vocab = self._vocabs[attribute]
            before = len(vocab)
            codes[:, attribute] = np.fromiter(
                (
                    vocab.setdefault(str(row[attribute]), len(vocab))
                    for row in rows
                ),
                dtype=np.int32,
                count=count,
            )
            grew = grew or len(vocab) != before
        if grew:
            self._version += 1
        return codes


@dataclasses.dataclass
class CompiledRuleMasks:
    """Per-feature allowed-code masks for one ordered rule list.

    ``masks`` holds ``(attribute, (n_rules, vocab_size) bool)`` pairs for
    the attributes at least one rule restricts; unrestricted attributes
    are simply absent (implicitly all-True).  Valid only for the codec
    version it was compiled against.
    """

    codec_version: int
    n_rules: int
    masks: List[Tuple[int, "np.ndarray"]]


def compile_rules(
    rules: Sequence[Rule], codec: FeatureCodec
) -> CompiledRuleMasks:
    """Compile an ordered rule list into per-feature allowed-code masks.

    A condition whose value the codec has never interned yields an
    all-False row: the rule can match no encoded instance, which is
    exactly the scalar outcome (no row carries that value).  A condition
    on an attribute outside the codec's row width raises
    :class:`ValueError`.
    """
    sizes = codec.vocab_sizes()
    n_rules = len(rules)
    restricted: Dict[int, "np.ndarray"] = {}
    for index, rule in enumerate(rules):
        for condition in rule.conditions:
            attribute = condition.attribute
            if not 0 <= attribute < len(sizes):
                raise ValueError(
                    f"condition on attribute {attribute} outside the "
                    f"{len(sizes)}-wide rows"
                )
            mask = restricted.get(attribute)
            if mask is None:
                mask = np.ones((n_rules, sizes[attribute]), dtype=bool)
                restricted[attribute] = mask
            allowed = np.zeros(sizes[attribute], dtype=bool)
            code = codec.code_of(attribute, condition.value)
            if code is not None:
                allowed[code] = True
            mask[index] &= allowed
    return CompiledRuleMasks(
        codec_version=codec.version,
        n_rules=n_rules,
        masks=sorted(restricted.items()),
    )


def match_codes(
    compiled: CompiledRuleMasks, codes: "np.ndarray"
) -> "np.ndarray":
    """``(n_rules, n_rows)`` bool: which rules match which coded rows."""
    match = np.ones((compiled.n_rules, codes.shape[0]), dtype=bool)
    for attribute, mask in compiled.masks:
        match &= mask[:, codes[:, attribute]]
    return match


def resolve_matches(
    match: "np.ndarray",
    is_malicious: "np.ndarray",
    policy: str,
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Resolve a match matrix into per-row ``(labels, rejected)`` arrays.

    ``policy`` is a :class:`~repro.core.classifier.ConflictPolicy` value
    string (``"reject"``/``"majority"``/``"first_match"``); labels use
    the ``LABEL_*`` codes.  Mirrors ``RuleBasedClassifier.classify``
    decision for decision: unanimous matches label directly, conflicts
    resolve per policy, majority ties reject.
    """
    n_rules, n_rows = match.shape
    labels = np.full(n_rows, LABEL_NONE, dtype=np.int8)
    rejected = np.zeros(n_rows, dtype=bool)
    if n_rules == 0 or n_rows == 0:
        return labels, rejected
    mal_counts = match[is_malicious].sum(axis=0)
    ben_counts = match[~is_malicious].sum(axis=0)
    matched = (mal_counts + ben_counts) > 0
    labels[matched & (ben_counts == 0)] = LABEL_MALICIOUS
    labels[matched & (mal_counts == 0)] = LABEL_BENIGN
    conflicted = (mal_counts > 0) & (ben_counts > 0)
    if policy == "reject":
        rejected[conflicted] = True
    elif policy == "majority":
        labels[conflicted & (mal_counts > ben_counts)] = LABEL_MALICIOUS
        labels[conflicted & (ben_counts > mal_counts)] = LABEL_BENIGN
        rejected[conflicted & (mal_counts == ben_counts)] = True
    elif policy == "first_match":
        first = match.argmax(axis=0)
        first_is_malicious = is_malicious[first]
        labels[conflicted & first_is_malicious] = LABEL_MALICIOUS
        labels[conflicted & ~first_is_malicious] = LABEL_BENIGN
    else:
        raise ValueError(f"unknown conflict policy {policy!r}")
    return labels, rejected


@dataclasses.dataclass
class MatchedBatch:
    """Rule-match results over a row-deduplicated batch.

    ``match`` covers the *unique* rows only; ``inverse`` maps each
    original row back to its unique column.
    """

    match: "np.ndarray"      # (n_rules, n_unique) bool
    inverse: "np.ndarray"    # (n_rows,) -> unique column index
    is_malicious: "np.ndarray"  # (n_rules,) bool
    n_rows: int
    n_unique: int

    def unique_resolve(
        self, policy: str
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Per-unique-row ``(labels, rejected)`` under one policy."""
        return resolve_matches(self.match, self.is_malicious, policy)

    def resolve(self, policy: str) -> Tuple["np.ndarray", "np.ndarray"]:
        """Per-original-row ``(labels, rejected)`` under one policy."""
        labels, rejected = self.unique_resolve(policy)
        return labels[self.inverse], rejected[self.inverse]

    def matched_any(self) -> "np.ndarray":
        """Per-original-row bool: at least one rule matched."""
        return (self.match.sum(axis=0) > 0)[self.inverse]

    def matched_rule_indices(self, column: int) -> "np.ndarray":
        """Rule indices matching one *unique* row, in rule order."""
        return np.nonzero(self.match[:, column])[0]


class ColumnarRuleEvaluator:
    """Batch rule matcher for one ordered rule list.

    Owns the codec and the version-keyed compiled masks: encoding a
    batch that introduces new feature values grows a vocabulary, which
    triggers a (cheap) mask re-compile on the next match.  The rule list
    is snapshotted at construction; mutate-and-reuse is not supported
    (rebuild the evaluator instead).
    """

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.is_malicious = np.fromiter(
            (rule.prediction == MALICIOUS_CLASS for rule in self.rules),
            dtype=bool,
            count=len(self.rules),
        )
        self.codec = FeatureCodec()
        self._compiled: Optional[CompiledRuleMasks] = None

    def match_rows(self, rows: Sequence[Sequence]) -> MatchedBatch:
        """Dedup, encode and match a batch of feature tuples.

        Raises :class:`ValueError` when the rows' width disagrees with
        what the codec already encoded, or a rule tests an attribute
        outside that width.  An empty batch leaves the codec untouched,
        so it cannot fix the row width for later batches.
        """
        if not rows:
            return MatchedBatch(
                match=np.zeros((len(self.rules), 0), dtype=bool),
                inverse=np.empty(0, dtype=np.intp),
                is_malicious=self.is_malicious,
                n_rows=0,
                n_unique=0,
            )
        codes = self.codec.encode_rows(rows)
        unique, inverse = np.unique(codes, axis=0, return_inverse=True)
        compiled = self._compiled
        if compiled is None or compiled.codec_version != self.codec.version:
            compiled = compile_rules(self.rules, self.codec)
            self._compiled = compiled
        return MatchedBatch(
            match=match_codes(compiled, unique),
            inverse=inverse.reshape(-1),
            is_malicious=self.is_malicious,
            n_rows=len(rows),
            n_unique=unique.shape[0],
        )

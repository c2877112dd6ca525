"""Columnar rule-evaluation fast path: codes, masks, and row dedup.

The paper's classifier (Section VI-D) applies a few hundred conjunctive
rules over eight *low-cardinality categorical* features.  The scalar
reference implementation (:meth:`repro.core.classifier.RuleBasedClassifier
.classify`) walks every rule per instance -- `O(instances x rules x
conditions)` Python-level string comparisons.  This module turns that
batch-scoring hot loop into a handful of NumPy broadcasts:

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
and decisions leave as small integer arrays.  The classifier's batch
entry points always take this path unless :func:`rules_supported`
rejects the rules; its per-instance ``classify`` walk is the reference
``tests/core/test_columnar.py`` compares against, decision for decision
and count for count, under every
:class:`~repro.core.classifier.ConflictPolicy`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dataset import AttributeKind, MALICIOUS_CLASS
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

    def __init__(self, width: Optional[int] = None) -> None:
        self._width = width
        self._vocabs: List[Dict[str, int]] = [
            {} for _ in range(width or 0)
        ]
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
        (a :class:`ValueError` otherwise, which callers treat as "take
        the scalar path").
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


def rules_supported(rules: Sequence[Rule], width: Optional[int]) -> bool:
    """Whether the mask compiler can represent ``rules`` over ``width``.

    Requires every condition to be a categorical equality test on an
    attribute inside the row width.  Numeric threshold conditions (the
    tree code's generality escape hatch) fall back to the scalar path.
    """
    for rule in rules:
        for condition in rule.conditions:
            if condition.kind != AttributeKind.CATEGORICAL:
                return False
            if condition.operator != "==":
                return False
            if width is not None and not 0 <= condition.attribute < width:
                return False
    return True


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
    is_malicious: "np.ndarray"


def compile_rules(
    rules: Sequence[Rule], codec: FeatureCodec
) -> CompiledRuleMasks:
    """Compile an ordered rule list into per-feature allowed-code masks.

    A condition whose value the codec has never interned yields an
    all-False row: the rule can match no encoded instance, which is
    exactly the scalar outcome (no row carries that value).
    """
    sizes = codec.vocab_sizes()
    n_rules = len(rules)
    restricted: Dict[int, "np.ndarray"] = {}
    for index, rule in enumerate(rules):
        for condition in rule.conditions:
            attribute = condition.attribute
            mask = restricted.get(attribute)
            if mask is None:
                mask = np.ones((n_rules, sizes[attribute]), dtype=bool)
                restricted[attribute] = mask
            allowed = np.zeros(sizes[attribute], dtype=bool)
            code = codec.code_of(attribute, condition.value)
            if code is not None:
                allowed[code] = True
            mask[index] &= allowed
    is_malicious = np.fromiter(
        (rule.prediction == MALICIOUS_CLASS for rule in rules),
        dtype=bool,
        count=n_rules,
    )
    return CompiledRuleMasks(
        codec_version=codec.version,
        n_rules=n_rules,
        masks=sorted(restricted.items()),
        is_malicious=is_malicious,
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
    is snapshotted at construction; mutate-and-reuse is not supported on
    the fast path (rebuild the evaluator instead).
    """

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.codec = FeatureCodec()
        self._compiled: Optional[CompiledRuleMasks] = None
        self._supported: Optional[bool] = None

    def match_rows(self, rows: Sequence[Sequence]) -> Optional[MatchedBatch]:
        """Dedup, encode and match a batch of feature tuples.

        Returns ``None`` when the batch cannot take the fast path
        (unsupported rule conditions, or rows whose width disagrees with
        what the codec already encoded) -- callers then fall back to the
        scalar reference implementation.
        """
        try:
            codes = self.codec.encode_rows(rows)
        except ValueError:
            return None
        if self._supported is None:
            self._supported = rules_supported(self.rules, self.codec.width)
        if not self._supported:
            return None
        if codes.shape[0]:
            unique, inverse = np.unique(
                codes, axis=0, return_inverse=True
            )
            inverse = inverse.reshape(-1)
        else:
            unique = codes
            inverse = np.empty(0, dtype=np.intp)
        compiled = self._compiled
        if compiled is None or compiled.codec_version != self.codec.version:
            compiled = compile_rules(self.rules, self.codec)
            self._compiled = compiled
        return MatchedBatch(
            match=match_codes(compiled, unique),
            inverse=inverse,
            is_malicious=compiled.is_malicious,
            n_rows=len(rows),
            n_unique=unique.shape[0],
        )

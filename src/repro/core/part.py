"""The PART rule learner (Frank & Witten, ICML 1998).

PART combines separate-and-conquer rule learning with partial C4.5
decision trees:

1. build a *partial* tree on the remaining instances -- subsets of each
   split are expanded in order of increasing entropy, and expansion
   stops at the first subset that grows into a subtree;
2. the developed leaf covering the most instances becomes a rule (the
   conjunction of the equality tests on its path);
3. instances covered by the rule are removed and the process repeats.

Frank & Witten also try to replace each fully expanded subtree by a leaf
(C4.5's pessimistic estimate).  The paper's deployment does not: it
keeps the fine-grained per-signer leaves and filters the rules
afterwards by training error (the tau threshold of Section VI-D), so an
expanded subtree is never collapsed here.

The result is an ordered rule list ending in a default rule.  The paper
uses the learned rules as an *unordered* set with conflict rejection
(Section VI-D); that policy lives in :mod:`repro.core.classifier`.

The learner works on the int32 code matrix of
:class:`~repro.core.columnar.FeatureCodec`.  A tree node is an ascending
array of row numbers; its per-attribute class contingency tables are
``np.bincount`` calls over those rows, the separate step is a boolean
mask, and the rules' statistics on the full training set come from one
:func:`~repro.core.columnar.match_codes` pass.  Only the counting is
NumPy's.  Every entropy and split-information term is computed with
``math.log2`` and summed by :func:`~repro.core.decision_tree.choose_split`
branch by branch, in the order the values first appear among the node's
rows -- exactly as the object learner did: ``np.log2`` rounds some
ratios differently, a different summation order rounds the sums
differently, and either one can move a gain-ratio tie and so change
rules.  That object learner is kept as ``tests/core/part_reference.py``,
and ``tests/core/test_part_reference.py`` requires the two to return
identical rule lists.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace
from .columnar import FeatureCodec, compile_rules, match_codes
from .dataset import BENIGN_CLASS, MALICIOUS_CLASS, Instance
from .decision_tree import choose_split, entropy, splittable
from .rules import Condition, Rule, RuleSet

#: The branch tests leading to a node: ``(attribute, code)`` pairs.
_Path = Tuple[Tuple[int, int], ...]

#: A developed leaf: ``(coverage, errors, predicts malicious, path)``.
_LeafStats = Tuple[int, int, bool, _Path]

#: Rows per block of the final coverage pass, which bounds its
#: ``(rules, rows)`` match matrix.
_RESTATE_ROWS = 8192


class PartLearner:
    """Learns an ordered rule list from labeled instances."""

    def __init__(self, schema: Sequence[str]) -> None:
        self.schema = tuple(schema)

    def fit(self, instances: Sequence[Instance]) -> RuleSet:
        """Learn rules until every instance is covered.

        The separate-and-conquer loop extracts each rule from the
        *remaining* instances, but the returned rules carry coverage and
        error statistics re-measured on the **full** training set: a rule
        extracted late (e.g. "file is not signed -> malicious" after all
        signed files were removed) would otherwise look spuriously clean,
        and the Section VI-D tau filter would keep broad, error-prone
        rules.
        """
        with trace.span("core.part_fit", instances=len(instances)) as span:
            rules = _Fit(self.schema, instances).rules() if instances else []
            span.set_attribute("rules", len(rules))
        obs_metrics.counter(
            "rules.learned", "PART rules extracted across all fits"
        ).inc(len(rules))
        return RuleSet(rules)


class _Fit:
    """One fit's code matrix, class flags and entropy memo."""

    def __init__(self, schema: Tuple[str, ...], instances: Sequence[Instance]):
        self.schema = schema
        self.codec = FeatureCodec()
        self.codes = self.codec.encode_rows(
            [instance.values for instance in instances]
        )
        self.malicious = np.fromiter(
            (instance.label == MALICIOUS_CLASS for instance in instances),
            dtype=bool,
            count=len(instances),
        )
        self.values = [self.codec.values(index) for index in range(len(schema))]
        # Sibling subsets of equal entropy expand in the string order of
        # their values: key_rank[attribute][code] is that order.
        self.key_rank = []
        for values in self.values:
            rank = np.empty(len(values), dtype=np.intp)
            rank[sorted(range(len(values)), key=values.__getitem__)] = (
                np.arange(len(values))
            )
            self.key_rank.append(rank)
        # Each (attribute, value) pair has one id, attribute after
        # attribute, so one bincount counts every attribute of a node.
        sizes = [len(values) for values in self.values]
        self.offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        self.n_ids = sum(sizes)
        self.value_ids = np.ascontiguousarray(
            (self.codes[:, :len(schema)] + self.offsets).T, dtype=np.intp
        )
        self._entropies: Dict[Tuple[int, int], float] = {}

    def rules(self) -> List[Rule]:
        """Separate and conquer, then restate on the full training set."""
        rows = np.arange(self.malicious.size)
        extracted: List[_LeafStats] = []
        while rows.size:
            leaf = self._best_leaf(rows)
            covered = np.ones(rows.size, dtype=bool)
            for attribute, code in leaf[3]:
                covered &= self.codes[rows, attribute] == code
            if not covered.any():
                raise AssertionError(
                    "PART extracted a rule covering no instances; "
                    "this indicates a partition/condition mismatch"
                )
            extracted.append(leaf)
            rows = rows[~covered]
        return self._restate(extracted)

    # ------------------------------------------------------------------
    # Partial tree expansion
    # ------------------------------------------------------------------

    def _entropy(self, benign: int, malicious: int) -> float:
        key = (benign, malicious)
        value = self._entropies.get(key)
        if value is None:
            value = self._entropies[key] = entropy(
                Counter({BENIGN_CLASS: benign, MALICIOUS_CLASS: malicious})
            )
        return value

    def _branches(self, rows: np.ndarray) -> List[tuple]:
        """Every attribute's values among ``rows``, in the order they
        first appear there: ``(codes, sizes, malicious counts,
        entropies)`` per attribute."""
        ids = self.value_ids[:, rows]
        flat = ids.ravel()
        sizes = np.bincount(flat, minlength=self.n_ids)
        malicious = np.bincount(
            ids[:, self.malicious[rows]].ravel(), minlength=self.n_ids
        )
        # Sorting the present ids by their first position in the
        # attribute-major ``flat`` orders the attributes, and each
        # attribute's values by first appearance.
        first = np.full(self.n_ids, flat.size)
        np.minimum.at(first, flat, np.arange(flat.size))
        present = np.flatnonzero(sizes)
        present = present[np.argsort(first[present])]
        bounds = np.searchsorted(
            first[present], np.arange(len(self.values) + 1) * rows.size
        ).tolist()
        sizes = sizes[present]
        malicious = malicious[present]
        # A pure value's entropy is 0.0; only mixed ones need the memo.
        entropies = np.zeros(present.size)
        mixed = np.flatnonzero((malicious != 0) & (malicious != sizes))
        for index, size, bad in zip(mixed.tolist(), sizes[mixed].tolist(),
                                    malicious[mixed].tolist()):
            entropies[index] = self._entropy(size - bad, bad)
        sizes, malicious, entropies = (
            sizes.tolist(), malicious.tolist(), entropies.tolist()
        )
        return [
            (present[low:high] - self.offsets[attribute], sizes[low:high],
             malicious[low:high], entropies[low:high])
            for attribute, (low, high) in enumerate(zip(bounds, bounds[1:]))
        ]

    def _expand(
        self,
        rows: np.ndarray,
        size: int,
        malicious: int,
        path: _Path,
        leaves: List[_LeafStats],
    ) -> bool:
        """Grow the partial tree below the node holding ``rows``.

        Appends the node's developed leaves to ``leaves`` in tree order
        and returns whether the node grew into a subtree.
        """
        base_entropy = self._entropy(size - malicious, malicious)
        attribute = None
        if splittable(base_entropy, size):
            branches = self._branches(rows)
            attribute = choose_split(base_entropy, size, (
                (index, list(zip(sizes, entropies)))
                for index, (_, sizes, _, entropies) in enumerate(branches)
            ))
        if attribute is None:
            leaves.append(_leaf(size, malicious, path))
            return False
        codes, sizes, mal_counts, entropies = branches[attribute]
        column = None
        for branch in np.lexsort(
            (self.key_rank[attribute][codes], entropies)
        ).tolist():
            code = int(codes[branch])
            child_size = sizes[branch]
            child_malicious = mal_counts[branch]
            child_path = path + ((attribute, code),)
            if not splittable(entropies[branch], child_size):
                leaves.append(_leaf(child_size, child_malicious, child_path))
                continue
            if column is None:
                column = self.codes[rows, attribute]
            if self._expand(rows[column == code], child_size,
                            child_malicious, child_path, leaves):
                # An expanded subtree: the remaining subsets stay
                # undeveloped.
                break
        return True

    def _best_leaf(self, rows: np.ndarray) -> _LeafStats:
        """The developed leaf of the partial tree on ``rows`` with the
        largest coverage.

        Ties prefer lower error rate, then shorter paths, then the
        lexicographically smallest condition rendering, then tree order.
        """
        leaves: List[_LeafStats] = []
        malicious = int(np.count_nonzero(self.malicious[rows]))
        self._expand(rows, rows.size, malicious, (), leaves)
        best_key = None
        tied: List[_LeafStats] = []
        for leaf in leaves:
            coverage, errors, _, path = leaf
            key = (-coverage, errors / max(1, coverage), len(path))
            if best_key is None or key < best_key:
                best_key = key
                tied = [leaf]
            elif key == best_key:
                tied.append(leaf)
        if len(tied) == 1:
            return tied[0]
        return min(
            tied,
            key=lambda leaf: tuple(
                condition.render() for condition in self._conditions(leaf[3])
            ),
        )

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    def _conditions(self, path: _Path) -> Tuple[Condition, ...]:
        return tuple(
            Condition(
                feature=self.schema[attribute],
                attribute=attribute,
                value=self.values[attribute][code],
            )
            for attribute, code in path
        )

    def _restate(self, extracted: Sequence[_LeafStats]) -> List[Rule]:
        """The extracted rules with coverage and errors re-measured on
        the full training set."""
        drafts = [
            Rule(
                conditions=self._conditions(path),
                prediction=MALICIOUS_CLASS if malicious else BENIGN_CLASS,
                coverage=0,
                errors=0,
            )
            for _, _, malicious, path in extracted
        ]
        compiled = compile_rules(drafts, self.codec)
        coverage = np.zeros(len(drafts), dtype=np.int64)
        malicious_covered = np.zeros(len(drafts), dtype=np.int64)
        for start in range(0, self.malicious.size, _RESTATE_ROWS):
            stop = start + _RESTATE_ROWS
            match = match_codes(compiled, self.codes[start:stop])
            coverage += np.count_nonzero(match, axis=1)
            malicious_covered += np.count_nonzero(
                match[:, self.malicious[start:stop]], axis=1
            )
        return [
            dataclasses.replace(
                draft,
                coverage=covered,
                errors=(
                    covered - bad if draft.prediction == MALICIOUS_CLASS
                    else bad
                ),
            )
            for draft, covered, bad in zip(
                drafts, coverage.tolist(), malicious_covered.tolist()
            )
        ]


def _leaf(size: int, malicious: int, path: _Path) -> _LeafStats:
    """A majority-class leaf; a tie predicts benign, as
    :func:`~repro.core.decision_tree.make_leaf` does."""
    benign = size - malicious
    return (size, min(benign, malicious), malicious > benign, path)

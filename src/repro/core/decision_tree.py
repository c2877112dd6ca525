"""C4.5-style decision trees: gain-ratio splits and pessimistic pruning.

This is the tree machinery underneath the PART rule learner (Frank &
Witten 1998): entropy/gain-ratio split selection over categorical
attributes (one branch per value), C4.5's average-gain pre-filter, and
the pessimistic error estimate (Wilson-style upper confidence bound, the
``addErrs`` of C4.5) used for subtree replacement.  A branch holds a
single value of its split attribute, so no path splits an attribute
twice and a tree is never deeper than its schema is wide.

:func:`choose_split` is the one copy of the gain-ratio arithmetic and
the average-gain rule: :class:`SplitSelector` calls it with counts over
instance lists, and the code-matrix PART learner
(:mod:`repro.core.part`) with counts over code-matrix rows.

A standalone :class:`DecisionTree` classifier is exposed as well: the
§VI-D tree-versus-rules baseline (``benchmarks/bench_baseline_tree.py``)
builds one, and it lets the test suite exercise the split/prune
machinery independently of PART.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter, defaultdict
from statistics import NormalDist
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .dataset import Instance

#: C4.5's default pruning confidence factor.
DEFAULT_CF = 0.25

#: C4.5's default minimum instances per branch.
DEFAULT_MIN_INSTANCES = 2


def entropy(counts: Counter) -> float:
    """Shannon entropy (bits) of a class distribution."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    result = 0.0
    for count in counts.values():
        if count > 0:
            p = count / total
            result -= p * math.log2(p)
    return result


def class_counts(instances: Sequence[Instance]) -> Counter:
    """Counter of instance class labels."""
    return Counter(instance.label for instance in instances)


def pessimistic_added_errors(coverage: float, errors: float) -> float:
    """C4.5's ``addErrs``: extra errors added by the pessimistic estimate.

    The estimated error of a leaf covering ``coverage`` instances with
    ``errors`` training errors is ``errors + pessimistic_added_errors``.
    """
    if coverage <= 0:
        return 0.0
    if errors >= coverage:
        return 0.0
    if errors < 1e-9:
        # Upper bound when no errors were observed.
        return coverage * (1.0 - math.exp(math.log(DEFAULT_CF) / coverage))
    if errors + 0.5 >= coverage:
        return max(coverage - errors, 0.0)
    z = NormalDist().inv_cdf(1.0 - DEFAULT_CF)
    f = (errors + 0.5) / coverage
    upper = (
        f
        + z * z / (2.0 * coverage)
        + z * math.sqrt(f / coverage - f * f / coverage
                        + z * z / (4.0 * coverage * coverage))
    ) / (1.0 + z * z / coverage)
    return upper * coverage - errors


# ----------------------------------------------------------------------
# Nodes
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Leaf:
    """A terminal node predicting its majority class."""

    prediction: str
    counts: Counter

    @property
    def coverage(self) -> int:
        return sum(self.counts.values())

    @property
    def errors(self) -> int:
        return self.coverage - self.counts.get(self.prediction, 0)

    @property
    def is_leaf(self) -> bool:
        return True


@dataclasses.dataclass(frozen=True)
class Split:
    """A chosen multiway split of one attribute."""

    attribute: int

    def partition(
        self, instances: Sequence[Instance]
    ) -> Dict[str, List[Instance]]:
        """Split instances into branches keyed by ``str(value)``."""
        branches: Dict[str, List[Instance]] = defaultdict(list)
        for instance in instances:
            branches[str(instance.values[self.attribute])].append(instance)
        return dict(branches)


@dataclasses.dataclass
class InnerNode:
    """A test node with one child per branch."""

    split: Split
    children: Dict[str, Union["InnerNode", Leaf]]
    counts: Counter

    @property
    def prediction(self) -> str:
        return max(sorted(self.counts), key=lambda c: self.counts[c])

    @property
    def coverage(self) -> int:
        return sum(self.counts.values())

    @property
    def is_leaf(self) -> bool:
        return False


Node = Union[InnerNode, Leaf]


# ----------------------------------------------------------------------
# Split selection
# ----------------------------------------------------------------------


def splittable(base_entropy: float, instances: int) -> bool:
    """Whether C4.5 looks for a split at all: the node is impure and can
    hold two branches of :data:`DEFAULT_MIN_INSTANCES`."""
    return base_entropy != 0.0 and instances >= 2 * DEFAULT_MIN_INSTANCES


#: One attribute's branches: ``(instances, class entropy)`` per value, in
#: the order the values first appear among the node's instances.
Branches = Sequence[Tuple[int, float]]


def choose_split(
    base_entropy: float,
    instances: int,
    attributes: Iterable[Tuple[int, Branches]],
) -> Optional[int]:
    """The attribute C4.5 splits a node of ``instances`` on, or ``None``
    if no split helps.

    ``attributes`` yields ``(attribute, branches)`` pairs.  A candidate
    needs two values, two of them on at least
    :data:`DEFAULT_MIN_INSTANCES` instances, and positive gain and split
    information.  Among candidates with information gain at least the
    average gain of all candidates, the highest gain ratio wins (then
    the higher gain, then the lower attribute).

    The floats depend on summation order, and gain-ratio ties decide
    rules, so each branch term is added in ``branches`` order.
    """
    candidates: List[Tuple[float, float, int]] = []  # (gain, ratio, attr)
    for attribute, branches in attributes:
        if len(branches) < 2:
            continue
        big_enough = 0
        conditional = 0.0
        split_info = 0.0
        for size, branch_entropy in branches:
            if size >= DEFAULT_MIN_INSTANCES:
                big_enough += 1
            weight = size / instances
            conditional += weight * branch_entropy
            split_info -= weight * math.log2(weight)
        gain = base_entropy - conditional
        if big_enough < 2 or gain <= 1e-12 or split_info <= 1e-12:
            continue
        candidates.append((gain, gain / split_info, attribute))
    if not candidates:
        return None
    average_gain = sum(gain for gain, _, _ in candidates) / len(candidates)
    admissible = [
        (-ratio, -gain, attribute)
        for gain, ratio, attribute in candidates
        if gain >= average_gain - 1e-12
    ]
    if not admissible:
        return None
    return min(admissible)[2]


class SplitSelector:
    """Chooses the best gain-ratio split of a list of instances."""

    def __init__(self, schema: Sequence[str]) -> None:
        self.schema = tuple(schema)

    def best_split(self, instances: Sequence[Instance]) -> Optional[Split]:
        """The best admissible split (:func:`choose_split`), or ``None``."""
        base_entropy = entropy(class_counts(instances))
        if not splittable(base_entropy, len(instances)):
            return None
        attribute = choose_split(
            base_entropy,
            len(instances),
            (
                (index, self._branches(instances, index))
                for index in range(len(self.schema))
            ),
        )
        return None if attribute is None else Split(attribute)

    @staticmethod
    def _branches(instances: Sequence[Instance], index: int) -> Branches:
        branch_counts: Dict[str, Counter] = defaultdict(Counter)
        for instance in instances:
            branch_counts[str(instance.values[index])][instance.label] += 1
        return [
            (sum(counts.values()), entropy(counts))
            for counts in branch_counts.values()
        ]


# ----------------------------------------------------------------------
# Full tree with subtree-replacement pruning
# ----------------------------------------------------------------------


def make_leaf(instances: Sequence[Instance]) -> Leaf:
    """A leaf predicting the majority class (ties broken alphabetically)."""
    counts = class_counts(instances)
    prediction = max(sorted(counts), key=lambda label: counts[label])
    return Leaf(prediction=prediction, counts=counts)


def subtree_errors(node: Node) -> float:
    """Pessimistic error estimate of a (sub)tree."""
    if node.is_leaf:
        return node.errors + pessimistic_added_errors(
            node.coverage, node.errors
        )
    return sum(subtree_errors(child) for child in node.children.values())


class DecisionTree:
    """A C4.5-style classifier: build fully, prune by subtree replacement."""

    def __init__(self, schema: Sequence[str]) -> None:
        self.schema = tuple(schema)
        self._selector = SplitSelector(schema)
        self.root: Optional[Node] = None

    def fit(self, instances: Sequence[Instance]) -> "DecisionTree":
        """Build and prune the tree."""
        if not instances:
            raise ValueError("cannot fit a tree on zero instances")
        self.root = self._build(list(instances))
        return self

    def _build(self, instances: List[Instance]) -> Node:
        split = self._selector.best_split(instances)
        if split is None:
            return make_leaf(instances)
        branches = split.partition(instances)
        if len(branches) < 2:
            return make_leaf(instances)
        children = {
            key: self._build(subset)
            for key, subset in branches.items()
        }
        node = InnerNode(
            split=split, children=children, counts=class_counts(instances)
        )
        # Subtree replacement: keep the subtree only if it beats a leaf.
        leaf = make_leaf(instances)
        leaf_errors = leaf.errors + pessimistic_added_errors(
            leaf.coverage, leaf.errors
        )
        if leaf_errors <= subtree_errors(node) + 0.1:
            return leaf
        return node

    def predict(self, values: Sequence) -> str:
        """Classify one feature-value tuple."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        node = self.root
        while not node.is_leaf:
            child = node.children.get(str(values[node.split.attribute]))
            if child is None:
                # Unseen categorical value: fall back to the node majority.
                return node.prediction
            node = child
        return node.prediction

    def leaf_count(self) -> int:
        """Number of leaves in the fitted tree."""

        def count(node: Node) -> int:
            if node.is_leaf:
                return 1
            return sum(count(child) for child in node.children.values())

        if self.root is None:
            return 0
        return count(self.root)

    def depth(self) -> int:
        """Depth of the fitted tree (a lone leaf has depth 0)."""

        def measure(node: Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(measure(child) for child in node.children.values())

        if self.root is None:
            return 0
        return measure(self.root)

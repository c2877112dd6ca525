"""The object PART learner: the reference for the code-matrix learner.

:class:`repro.core.part.PartLearner` fits on the int32 code matrix.
This is the learner it replaced, kept line for line: partial C4.5 trees
of :class:`~repro.core.dataset.Instance` lists, split by
:class:`~repro.core.decision_tree.SplitSelector`, rules extracted from
the developed leaves and re-measured one ``Rule.matches`` call at a
time.  ``tests/core/test_part_reference.py`` requires the two to return
identical rule lists: conditions, order, prediction, coverage and
errors.

Only PART marks a leaf *undeveloped* (a subset left unexpanded once a
sibling grew into a subtree), so the ``developed`` flag lives here, not
on :class:`repro.core.decision_tree.Leaf`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from repro.core import decision_tree
from repro.core.dataset import Instance
from repro.core.decision_tree import (
    InnerNode,
    Node,
    SplitSelector,
    class_counts,
    entropy,
)
from repro.core.rules import Condition, Rule, RuleSet


@dataclasses.dataclass
class Leaf(decision_tree.Leaf):
    """A tree leaf that PART may leave undeveloped."""

    developed: bool = True


def make_leaf(instances: Sequence[Instance], developed: bool = True) -> Leaf:
    """A majority-class leaf (ties broken alphabetically)."""
    leaf = decision_tree.make_leaf(instances)
    return Leaf(prediction=leaf.prediction, counts=leaf.counts,
                developed=developed)


@dataclasses.dataclass(frozen=True)
class _LeafPath:
    """A developed leaf and the branch conditions leading to it."""

    leaf: Leaf
    conditions: Tuple[Condition, ...]


class PartLearner:
    """Learns an ordered rule list from labeled instances."""

    def __init__(self, schema: Sequence[str]) -> None:
        self.schema = tuple(schema)
        self._selector = SplitSelector(schema)

    def fit(self, instances: Sequence[Instance]) -> RuleSet:
        """Learn rules until every instance is covered, then restate
        each rule's coverage and errors on the full training set."""
        remaining = list(instances)
        rules: List[Rule] = []
        while remaining:
            root = self._expand(remaining)
            best = self._best_developed_leaf(root)
            rule = Rule(
                conditions=best.conditions,
                prediction=best.leaf.prediction,
                coverage=best.leaf.coverage,
                errors=best.leaf.errors,
            )
            rules.append(rule)
            before = len(remaining)
            remaining = [
                instance
                for instance in remaining
                if not rule.matches(instance.values)
            ]
            if len(remaining) == before:
                raise AssertionError(
                    "PART extracted a rule covering no instances; "
                    "this indicates a partition/condition mismatch"
                )
        return RuleSet([
            self._restate(rule, instances) for rule in rules
        ])

    @staticmethod
    def _restate(rule: Rule, instances: Sequence[Instance]) -> Rule:
        """Re-measure a rule's coverage/errors on the full training set."""
        coverage = 0
        errors = 0
        for instance in instances:
            if rule.matches(instance.values):
                coverage += 1
                if instance.label != rule.prediction:
                    errors += 1
        return Rule(
            conditions=rule.conditions,
            prediction=rule.prediction,
            coverage=coverage,
            errors=errors,
        )

    # ------------------------------------------------------------------
    # Partial tree expansion
    # ------------------------------------------------------------------

    def _expand(self, instances: List[Instance]) -> Node:
        """Build a partial tree: entropy-ordered subset expansion that
        stops at the first subset grown into a subtree."""
        split = self._selector.best_split(instances)
        if split is None:
            return make_leaf(instances)
        branches = split.partition(instances)
        if len(branches) < 2:
            return make_leaf(instances)
        ordered = sorted(
            branches.items(),
            key=lambda item: (entropy(class_counts(item[1])), item[0]),
        )
        children = {}
        for position, (key, subset) in enumerate(ordered):
            child = self._expand(subset)
            children[key] = child
            if not child.is_leaf:
                # An expanded subtree: stop here and leave the remaining
                # subsets undeveloped.
                for other_key, other_subset in ordered[position + 1:]:
                    children[other_key] = make_leaf(
                        other_subset, developed=False
                    )
                break
        return InnerNode(
            split=split, children=children, counts=class_counts(instances)
        )

    # ------------------------------------------------------------------
    # Rule extraction
    # ------------------------------------------------------------------

    def _best_developed_leaf(self, root: Node) -> _LeafPath:
        """The developed leaf with the largest coverage.

        Ties prefer lower error rate, then shorter paths, then the
        lexicographically smallest condition rendering (determinism).
        """
        paths = list(self._developed_leaves(root, ()))
        if not paths:
            raise AssertionError("partial tree has no developed leaf")

        def sort_key(path: _LeafPath):
            return (
                -path.leaf.coverage,
                path.leaf.errors / max(1, path.leaf.coverage),
                len(path.conditions),
                tuple(c.render() for c in path.conditions),
            )
        return min(paths, key=sort_key)

    def _developed_leaves(self, node: Node, conditions: Tuple[Condition, ...]):
        if node.is_leaf:
            if node.developed:
                yield _LeafPath(leaf=node, conditions=conditions)
            return
        for key, child in node.children.items():
            yield from self._developed_leaves(
                child, conditions + (self._condition_for(node, key),)
            )

    def _condition_for(self, node: InnerNode, key: str) -> Condition:
        attribute = node.split.attribute
        return Condition(
            feature=self.schema[attribute], attribute=attribute, value=key
        )

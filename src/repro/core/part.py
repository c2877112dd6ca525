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
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from ..obs import metrics as obs_metrics
from ..obs import trace
from .dataset import Instance
from .decision_tree import (
    InnerNode,
    Leaf,
    Node,
    SplitSelector,
    class_counts,
    entropy,
    make_leaf,
)
from .rules import Condition, Rule, RuleSet


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

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

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
            span.set_attribute("rules", len(rules))
        obs_metrics.counter(
            "rules.learned", "PART rules extracted across all fits"
        ).inc(len(rules))
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
            # The root was an inner node whose first expanded child kept
            # structure all the way down without any developed leaf --
            # impossible because recursion bottoms out in developed
            # leaves; guard anyway.
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

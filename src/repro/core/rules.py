"""Human-readable classification rules (Section VI-C).

A :class:`Rule` is a conjunction of attribute conditions with a predicted
class and its training statistics.  Rules render exactly in the paper's
style::

    IF (file's signer is "SecureInstall") -> file is malicious.
    IF (file is not signed) AND (downloading process is "Acrobat Reader")
        -> file is malicious.

A :class:`RuleSet` is an ordered collection (the PART extraction order)
with the selection (``tau`` error threshold) and introspection operations
the evaluation section uses.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from .dataset import BENIGN_CLASS, MALICIOUS_CLASS
from .features import FEATURE_NAMES, NO_CA, UNPACKED, UNSIGNED

#: Rendering templates per feature: (phrase for a value, phrase for the
#: "absent" sentinel).
_FEATURE_PHRASES: Dict[str, Tuple[str, Optional[str]]] = {
    "file_signer": ("file's signer is \"{}\"", "file is not signed"),
    "file_ca": ("file's CA is \"{}\"", "file has no CA"),
    "file_packer": ("file is packed by \"{}\"", "file is not packed"),
    "proc_signer": (
        "downloading process's signer is \"{}\"",
        "downloading process is not signed",
    ),
    "proc_ca": (
        "downloading process's CA is \"{}\"",
        "downloading process has no CA",
    ),
    "proc_packer": (
        "downloading process is packed by \"{}\"",
        "downloading process is not packed",
    ),
    "proc_type": ("downloading process is {}", None),
    "alexa_bin": ("Alexa rank of file's URL is {}", None),
}

_SENTINELS = {UNSIGNED, UNPACKED, NO_CA}

_PROC_TYPE_PHRASES = {
    "browser": "a browser",
    "windows": "a Windows process",
    "java": "Java",
    "acrobat": "\"Acrobat Reader\"",
    "other": "another benign process",
    "malicious-process": "malicious",
    "likely_malicious-process": "likely malicious",
    "likely_benign-process": "likely benign",
    "unknown-process": "unknown",
}

_ALEXA_PHRASES = {
    "top-1k": "in the top 1,000",
    "1k-10k": "between 1,000 and 10,000",
    "10k-100k": "between 10,000 and 100,000",
    "100k-1m": "between 100,000 and 1,000,000",
    "unranked": "not in the top one million",
}


@dataclasses.dataclass(frozen=True)
class Condition:
    """One equality test of a rule: ``values[attribute] == value``.

    Values are compared by their ``str()`` form, the same lens the tree
    code splits by and :class:`repro.core.columnar.FeatureCodec` interns
    through.
    """

    feature: str
    attribute: int
    value: object

    def matches(self, values: Sequence) -> bool:
        """Whether a feature-value tuple satisfies this condition."""
        return str(values[self.attribute]) == str(self.value)

    def render(self) -> str:
        """The paper-style phrase for this condition."""
        template, absent_phrase = _FEATURE_PHRASES.get(
            self.feature, (f"{self.feature} is \"{{}}\"", None)
        )
        value = str(self.value)
        if value in _SENTINELS and absent_phrase is not None:
            return absent_phrase
        if self.feature == "proc_type":
            return template.format(_PROC_TYPE_PHRASES.get(value, f'"{value}"'))
        if self.feature == "alexa_bin":
            return template.format(_ALEXA_PHRASES.get(value, value))
        return template.format(value)


@dataclasses.dataclass(frozen=True)
class Rule:
    """A conjunctive classification rule with training statistics."""

    conditions: Tuple[Condition, ...]
    prediction: str
    coverage: int
    errors: int

    def __post_init__(self) -> None:
        if self.coverage < 0 or self.errors < 0 or self.errors > self.coverage:
            raise ValueError(
                f"invalid rule statistics coverage={self.coverage} "
                f"errors={self.errors}"
            )

    @property
    def error_rate(self) -> float:
        """Training error rate of the rule."""
        return self.errors / self.coverage if self.coverage else 0.0

    @property
    def is_default(self) -> bool:
        """Whether this is a match-everything default rule."""
        return not self.conditions

    def matches(self, values: Sequence) -> bool:
        """Whether a feature-value tuple satisfies every condition."""
        return all(condition.matches(values) for condition in self.conditions)

    def render(self) -> str:
        """Paper-style human-readable form."""
        target = (
            "file is malicious" if self.prediction == MALICIOUS_CLASS
            else "file is benign"
        )
        if self.is_default:
            return f"IF (anything) -> {target}."
        body = " AND ".join(
            f"({condition.render()})" for condition in self.conditions
        )
        return f"IF {body} -> {target}."

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


@dataclasses.dataclass
class RuleSet:
    """An ordered set of rules with selection and introspection helpers."""

    rules: List[Rule]

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def select(self, tau: float, min_coverage: int = 1) -> "RuleSet":
        """Rules with training error rate at most ``tau`` (Section VI-D).

        The PART default rule (no conditions) is always dropped: it
        exists to make the decision list total, and would otherwise match
        every file.  ``min_coverage`` optionally drops rules supported by
        very few training files (the paper highlights a rule "learned
        from more than 50 instances"; sparsely supported rules are the
        main source of false positives at small dataset scales).
        """
        return RuleSet(
            [
                rule
                for rule in self.rules
                if rule.error_rate <= tau + 1e-12
                and rule.coverage >= min_coverage
                and not rule.is_default
            ]
        )

    def count_for(self, prediction: str) -> int:
        """Number of rules predicting one class."""
        return sum(1 for rule in self.rules if rule.prediction == prediction)

    @property
    def benign_rules(self) -> int:
        return self.count_for(BENIGN_CLASS)

    @property
    def malicious_rules(self) -> int:
        return self.count_for(MALICIOUS_CLASS)

    def feature_usage(self) -> Dict[str, float]:
        """Fraction of rules whose conditions mention each feature.

        Section VII reports the file-signer feature in 75% of rules.
        """
        if not self.rules:
            return {name: 0.0 for name in FEATURE_NAMES}
        usage = {name: 0 for name in FEATURE_NAMES}
        for rule in self.rules:
            for feature in {c.feature for c in rule.conditions}:
                usage[feature] += 1
        return {name: count / len(self.rules) for name, count in usage.items()}

    def single_condition_fraction(self) -> float:
        """Fraction of rules with exactly one condition (89% in the paper)."""
        if not self.rules:
            return 0.0
        singles = sum(1 for rule in self.rules if len(rule.conditions) == 1)
        return singles / len(self.rules)

    def render(self) -> str:
        """All rules, one per line."""
        return "\n".join(rule.render() for rule in self.rules)

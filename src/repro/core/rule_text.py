"""Parsing and explaining human-readable rules.

The paper's central interpretability claim (Section VI-C, citing
Doshi-Velez & Kim) is that analysts can *review and modify* the learned
rules.  This module closes that loop:

* :func:`parse_rule` / :func:`parse_rules` read the exact textual syntax
  that :meth:`repro.core.rules.Rule.render` emits, so a rule file can be
  exported, hand-edited and loaded back into a classifier;
* :func:`explain_decision` turns a classification into the paper-style
  justification an analyst would want ("matched 2 rules, all predicting
  malicious: ...").
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .classifier import Decision
from .dataset import BENIGN_CLASS, MALICIOUS_CLASS
from .features import FEATURE_NAMES, NO_CA, UNPACKED, UNSIGNED
from .rules import Condition, Rule, RuleSet

#: Inverse of the rendering templates in :mod:`repro.core.rules`.
#: (regex, feature, value-or-None); ``None`` means group 1 is the value.
_PHRASE_PATTERNS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    (r'^file\'s signer is "(.+)"$', "file_signer", None),
    (r"^file is not signed$", "file_signer", UNSIGNED),
    (r'^file\'s CA is "(.+)"$', "file_ca", None),
    (r"^file has no CA$", "file_ca", NO_CA),
    (r'^file is packed by "(.+)"$', "file_packer", None),
    (r"^file is not packed$", "file_packer", UNPACKED),
    (r'^downloading process\'s signer is "(.+)"$', "proc_signer", None),
    (r"^downloading process is not signed$", "proc_signer", UNSIGNED),
    (r'^downloading process\'s CA is "(.+)"$', "proc_ca", None),
    (r"^downloading process has no CA$", "proc_ca", NO_CA),
    (r'^downloading process is packed by "(.+)"$', "proc_packer", None),
    (r"^downloading process is not packed$", "proc_packer", UNPACKED),
    (r"^downloading process is a browser$", "proc_type", "browser"),
    (r"^downloading process is a Windows process$", "proc_type", "windows"),
    (r"^downloading process is Java$", "proc_type", "java"),
    (r'^downloading process is "Acrobat Reader"$', "proc_type", "acrobat"),
    (r"^downloading process is another benign process$", "proc_type", "other"),
    (r"^downloading process is malicious$", "proc_type",
     "malicious-process"),
    (r"^downloading process is likely malicious$", "proc_type",
     "likely_malicious-process"),
    (r"^downloading process is likely benign$", "proc_type",
     "likely_benign-process"),
    (r"^downloading process is unknown$", "proc_type", "unknown-process"),
    (r"^Alexa rank of file's URL is in the top 1,000$", "alexa_bin",
     "top-1k"),
    (r"^Alexa rank of file's URL is between 1,000 and 10,000$", "alexa_bin",
     "1k-10k"),
    (r"^Alexa rank of file's URL is between 10,000 and 100,000$",
     "alexa_bin", "10k-100k"),
    (r"^Alexa rank of file's URL is between 100,000 and 1,000,000$",
     "alexa_bin", "100k-1m"),
    (r"^Alexa rank of file's URL is not in the top one million$",
     "alexa_bin", "unranked"),
    (r'^downloading process is "(.+)"$', "proc_type", None),
)

_RULE_RE = re.compile(
    r"^IF\s+(?P<body>.+?)\s*->\s*file is (?P<cls>malicious|benign)\.?\s*$"
)


class RuleParseError(ValueError):
    """Raised when a rule line does not follow the rendered syntax."""


def _parse_condition(phrase: str) -> Condition:
    phrase = phrase.strip()
    for pattern, feature, fixed_value in _PHRASE_PATTERNS:
        match = re.match(pattern, phrase)
        if match:
            value = fixed_value if fixed_value is not None else match.group(1)
            return Condition(
                feature=feature,
                attribute=FEATURE_NAMES.index(feature),
                value=value,
            )
    raise RuleParseError(f"unrecognized condition phrase: {phrase!r}")


def parse_rule(text: str) -> Rule:
    """Parse one rendered rule line back into a :class:`Rule`.

    Coverage/error statistics are not part of the textual form; parsed
    rules carry zeros (an analyst-authored rule has no training
    statistics until re-measured).
    """
    match = _RULE_RE.match(text.strip())
    if not match:
        raise RuleParseError(f"not a rule line: {text!r}")
    prediction = (
        MALICIOUS_CLASS if match.group("cls") == "malicious" else BENIGN_CLASS
    )
    body = match.group("body").strip()
    if body == "(anything)":
        return Rule((), prediction, 0, 0)
    # Split on ") AND (" at the top level; phrases contain no parentheses.
    if not (body.startswith("(") and body.endswith(")")):
        raise RuleParseError(f"malformed condition list: {body!r}")
    phrases = body[1:-1].split(") AND (")
    conditions = tuple(_parse_condition(phrase) for phrase in phrases)
    return Rule(conditions, prediction, 0, 0)


def parse_rules(text: str) -> RuleSet:
    """Parse a rule file: one rendered rule per non-empty, non-# line.

    Trailing ``# ...`` comments (as written by the CLI) are ignored.
    """
    rules: List[Rule] = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            rules.append(parse_rule(stripped))
        except RuleParseError as error:
            raise RuleParseError(f"line {number}: {error}") from error
    return RuleSet(rules)


def explain_decision(decision: Decision) -> str:
    """A paper-style analyst explanation of one classification."""
    if not decision.matched:
        return "No rule matched: the file stays unknown."
    if decision.rejected:
        sides = sorted({rule.prediction for rule in decision.matched_rules})
        return (
            f"Rejected: {len(decision.matched_rules)} matching rules "
            f"disagree ({' vs '.join(sides)}):\n"
            + "\n".join(
                f"  - {rule.render()}" for rule in decision.matched_rules
            )
        )
    return (
        f"Labeled {decision.label} by {len(decision.matched_rules)} "
        "rule(s):\n"
        + "\n".join(
            f"  - {rule.render()}" for rule in decision.matched_rules
        )
    )

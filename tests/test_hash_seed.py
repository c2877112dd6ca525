"""Outputs must not depend on the interpreter's string-hash seed.

``PYTHONHASHSEED`` changes the iteration order of every set and
frozenset of strings, and of the hashes of rules and conditions.  Each
check runs in two fresh interpreters, under hash seeds 0 and 1, and
requires byte-identical stdout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Two months sharing 24 rules, all learned from 10 files in the last
#: month, so their order comes from the tie-break alone.
PERSISTENT_RULES = """
from repro.core.dataset import BENIGN_CLASS, MALICIOUS_CLASS
from repro.core.drift import persistent_rules
from repro.core.rules import Condition, Rule, RuleSet

def month(coverage):
    return RuleSet([
        Rule(
            (Condition("file_signer", 0, f"signer {index}"),),
            MALICIOUS_CLASS if index % 2 else BENIGN_CLASS,
            coverage,
            0,
        )
        for index in range(24)
    ])

for rule in persistent_rules([month(3), month(10)]):
    print(rule.render())
"""

CORPUS = ["--scale", "0.003", "--seed", "7", "--no-cache", "--jobs", "1"]


def _stdout(args, hash_seed: int) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        check=True,
        timeout=300,
    ).stdout


@pytest.mark.parametrize(
    "args, marker",
    [
        (["-c", PERSISTENT_RULES], b"signer 23"),
        (["-m", "repro.cli", "report", "--all", *CORPUS], b"Table XIV:"),
        (["-m", "repro.cli", "evaluate", *CORPUS], b"Table XVII"),
    ],
    ids=["persistent_rules", "report_all", "evaluate"],
)
def test_stdout_identical_across_hash_seeds(args, marker):
    first = _stdout(args, 0)
    assert marker in first
    assert _stdout(args, 1) == first

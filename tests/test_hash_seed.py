"""Outputs must not depend on the interpreter's string-hash seed.

``PYTHONHASHSEED`` changes the iteration order of every set and
frozenset of strings, and of the hashes of rules and conditions.  Each
check runs in two fresh interpreters, under hash seeds 0 and 1, and
requires byte-identical stdout, the same exit status and byte-identical
files in the directory the command writes, if any.
"""

from __future__ import annotations

import hashlib
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

WORLD = ["--scale", "0.003", "--seed", "7"]
CORPUS = [*WORLD, "--no-cache"]


def _run(args, hash_seed: int, cwd: Path):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        timeout=300,
    )
    return done.returncode, done.stdout


def _file_digests(directory: Path):
    return {
        path.relative_to(directory).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize(
    "args, marker, statuses, written",
    [
        (["-c", PERSISTENT_RULES], b"signer 23", {0}, {}),
        (["-m", "repro.cli", "report", "--all", *CORPUS], b"Table XIV:",
         {0}, {}),
        (["-m", "repro.cli", "evaluate", *CORPUS], b"Table XVII", {0}, {}),
        # Prints the store's content digest; each run writes its own
        # ``store/`` under its working directory.
        (["-m", "repro.cli", "export", "--out", "store", *CORPUS],
         b"content digest:", {0},
         {"store": {"events-00000.jsonl", "files-00000.jsonl",
                    "processes-00000.jsonl", "manifest.json",
                    "labels.jsonl"}}),
        # Exit status 1 is the fidelity verdict, not an error: at this
        # scale some targets fail.
        # validate builds every seed's world uncached: no --no-cache.
        (["-m", "repro.cli", "validate", "--seeds", "1", *WORLD],
         b"overall:", {0, 1}, {}),
    ],
    ids=["persistent_rules", "report_all", "evaluate", "export", "validate"],
)
def test_stdout_identical_across_hash_seeds(
    args, marker, statuses, written, tmp_path
):
    runs = []
    for hash_seed in (0, 1):
        cwd = tmp_path / f"hash_seed_{hash_seed}"
        cwd.mkdir()
        status, stdout = _run(args, hash_seed, cwd)
        files = {name: _file_digests(cwd / name) for name in written}
        runs.append((status, stdout, files))
    status, stdout, files = runs[0]
    assert status in statuses, stdout
    assert marker in stdout
    for name, expected in written.items():
        assert set(files[name]) == expected
    assert runs[1] == runs[0]

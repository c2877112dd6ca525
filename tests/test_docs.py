"""Every CLI command the documentation shows must parse.

Each line of a fenced block that starts with ``repro`` or
``python -m repro.cli`` (after an optional ``$`` prompt, with ``\\``
continuations joined and a trailing ``# comment`` or ``> redirect``
stripped) goes through :func:`repro.cli.build_parser`, and so does the
command a ``profile`` line wraps.  A documented subcommand or flag that
the CLI no longer has fails here.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

DOCUMENTS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "EXPERIMENTS.md",
    ROOT / "DESIGN.md",
    ROOT / "benchmarks" / "README.md",
]

PREFIXES = ("repro ", "python -m repro.cli ")


def documented_commands(path: Path) -> Iterator[Tuple[int, List[str]]]:
    """``(line number, argv)`` of every CLI command fenced in ``path``."""
    fenced = False
    pending = ""
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if not fenced:
            continue
        if not pending:
            start = number
        text = pending + line.strip()
        if text.endswith("\\"):
            pending = text[:-1] + " "
            continue
        pending = ""
        text = re.split(r"\s[#>]", text.removeprefix("$ "), maxsplit=1)[0]
        for prefix in PREFIXES:
            if text.startswith(prefix):
                yield start, shlex.split(text[len(prefix):])


def _parses(argv: List[str]) -> bool:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "profile":
            build_parser().parse_args(args.rest)
    except SystemExit:
        return False
    return True


def test_documented_commands_parse(capsys):
    commands = [
        (path.relative_to(ROOT), number, argv)
        for path in DOCUMENTS
        for number, argv in documented_commands(path)
    ]
    assert commands
    stale = [
        f"{path}:{number}: {shlex.join(argv)}"
        for path, number, argv in commands
        if not _parses(argv)
    ]
    capsys.readouterr()  # argparse's usage errors
    assert not stale, "\n".join(stale)


@pytest.mark.parametrize("text, argv", [
    ("repro import out/store   # strict", ["import", "out/store"]),
    ("$ repro import out/store", ["import", "out/store"]),
    ("python -m repro.cli report --all > out.txt", ["report", "--all"]),
    ("python -m repro.cli validate --seeds 1 \\\n    --scale 0.02",
     ["validate", "--seeds", "1", "--scale", "0.02"]),
    ("from repro import sched", None),
])
def test_extraction(tmp_path, text, argv):
    document = tmp_path / "doc.md"
    document.write_text(f"{text}\n```bash\n{text}\n```\n", encoding="utf-8")
    found = [tokens for _, tokens in documented_commands(document)]
    assert found == ([argv] if argv else [])

"""Helpers shared by the experiment files."""

from __future__ import annotations

from pathlib import Path

#: Where the rendered experiment tables are written.
OUTPUT_DIR = Path(__file__).parent / "output"


def save_artifact(name: str, text: str) -> None:
    """Write one rendered experiment table under ``benchmarks/output/``."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")

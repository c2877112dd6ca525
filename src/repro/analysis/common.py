"""Shared result helpers for the measurement analyses.

:func:`cdf_points` and :func:`top_n` shape grouped counts into the
paper's CDF series and deterministic top-N lists.  The group-bys that
produce those counts run on the shared columnar
:class:`~repro.analysis.frame.SessionFrame`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def cdf_points(
    values: Sequence[float], grid: Sequence[float]
) -> List[Tuple[float, float]]:
    """Empirical CDF of ``values`` evaluated on ``grid``.

    Returns ``(x, F(x))`` pairs; an empty value list yields F=0 everywhere.
    """
    ordered = sorted(values)
    total = len(ordered)
    points = []
    index = 0
    for x in grid:
        while index < total and ordered[index] <= x:
            index += 1
        points.append((x, index / total if total else 0.0))
    return points


def top_n(counter: Dict[str, int], n: int) -> List[Tuple[str, int]]:
    """Top-``n`` (key, count) pairs, ties broken by key for determinism."""
    return sorted(counter.items(), key=lambda item: (-item[1], item[0]))[:n]

"""Ablation: the reporting prevalence threshold sigma (Section II-A).

The vendor capped per-file reporting at sigma=20 distinct machines to
bound agent bandwidth.  This sweep regenerates the same world under
different thresholds and measures what the telemetry loses.
"""

from repro.synth.world import World, WorldConfig
from repro.reporting import fmt_frac, fmt_int, render_table

from .common import save_artifact

SIGMAS = (5, 10, 20, 50)


def _sweep(seed, scale):
    rows = []
    for sigma in SIGMAS:
        world = World(WorldConfig(seed=seed, scale=scale, sigma=sigma))
        dataset = world.collect()
        stats = world.filter_stats
        prevalence = dataset.file_prevalence
        capped = sum(1 for count in prevalence.values() if count >= sigma)
        rows.append(
            (
                sigma,
                stats.reported,
                stats.over_sigma,
                capped / len(prevalence),
                max(prevalence.values()),
            )
        )
    return rows


def test_sigma_sweep():
    rows = _sweep(11, 0.004)
    table = render_table(
        ["sigma", "reported events", "dropped (over sigma)",
         "files at cap", "max observed prevalence"],
        [
            [sigma, fmt_int(reported), fmt_int(dropped),
             fmt_frac(capped, 4), peak]
            for sigma, reported, dropped, capped, peak in rows
        ],
        title="Ablation: reporting prevalence threshold sigma (Section II-A)",
    )
    save_artifact("ablation_sigma", table)
    dropped = [row[2] for row in rows]
    assert dropped == sorted(dropped, reverse=True)
    peaks = [row[4] for row in rows]
    assert peaks == sorted(peaks)

"""Ablation: what if the unknowns are mostly benign -- or mostly malware?

The paper's central open question is the true nature of the 83% unknown
mass.  The synthetic world makes the assumption explicit
(``WorldConfig.unknown_latent_malicious_fraction``); this sweep
regenerates the world under different assumptions and measures what
changes -- including how many *machines* would be infected if the
latently malicious unknowns were real malware, the scenario the paper
warns about ("if a large percentage of the unknown files was malicious,
it would affect a very large fraction of machines").
"""

from repro.labeling.ground_truth import label_world
from repro.labeling.labels import FileLabel
from repro.reporting import fmt_pct, render_table
from repro.synth.world import World, WorldConfig

from .common import save_artifact

FRACTIONS = (0.15, 0.45, 0.75)


def _measure(fraction, seed, scale):
    world = World(
        WorldConfig(
            seed=seed, scale=scale,
            unknown_latent_malicious_fraction=fraction,
        )
    )
    dataset = world.collect()
    labeled = label_world(world, dataset)
    files = world.corpus.files
    unknown = labeled.files_with_label(FileLabel.UNKNOWN)
    latent_malicious = {
        sha for sha in unknown if files[sha].latent_malicious
    }
    machines_hit = {
        event.machine_id
        for event in dataset.events
        if event.file_sha1 in latent_malicious
    }
    return {
        "unknown_fraction": len(unknown) / len(dataset.files),
        "latent_malicious_share": (
            len(latent_malicious) / len(unknown) if unknown else 0.0
        ),
        "machines_hit": len(machines_hit) / len(dataset.machine_ids),
    }


def _sweep(seed, scale):
    return {
        fraction: _measure(fraction, seed, scale) for fraction in FRACTIONS
    }


def test_ablation_unknown_nature():
    results = _sweep(13, 0.005)
    table = render_table(
        ["assumed latent-malicious fraction", "unknown files",
         "actually malicious among unknowns", "machines running them"],
        [
            [
                fmt_pct(100 * fraction, 0),
                fmt_pct(100 * row["unknown_fraction"]),
                fmt_pct(100 * row["latent_malicious_share"]),
                fmt_pct(100 * row["machines_hit"]),
            ]
            for fraction, row in results.items()
        ],
        title=(
            "Ablation: assumed latent nature of the unknown mass "
            "(Section VI motivation)"
        ),
    )
    save_artifact("ablation_unknown_nature", table)
    hits = [row["machines_hit"] for row in results.values()]
    assert hits == sorted(hits)

"""The equivalence oracle: streamed ingestion == batch collection.

The headline guarantee of the serve subsystem: for any agent count,
batch size and flush interval -- and across a mid-batch crash plus
resume -- the store the streaming path commits is content-digest
identical to what batch :func:`collect` produces, and the merged edge +
central filter stats equal single-site stats.
"""

import pytest

from repro import WorldConfig
from repro.pipeline import stream_session
from repro.serve import FaultSchedule, InjectedCrash, ServeConfig
from repro.telemetry.collector import collect
from repro.telemetry.store import load_dataset

#: Same config as the shared ``small_session`` fixture, so the world and
#: the labeled session come from the pipeline memo.
CONFIG = WorldConfig(seed=11, scale=0.005)

#: (agents, batch_max, flush_interval) -- the sweep the oracle quantifies
#: over.  Agent counts straddle machine-count divisors, batch sizes
#: straddle part boundaries, flush intervals span 20x.
SWEEP = [
    (1, 64, 0.2),
    (3, 257, 0.05),
    (7, 1000, 0.01),
]


@pytest.mark.parametrize("agents,batch_max,flush_interval", SWEEP)
def test_streamed_digest_equals_batch(tmp_path, agents, batch_max,
                                      flush_interval):
    outcome = stream_session(
        CONFIG,
        tmp_path / "store",
        agents=agents,
        serve_config=ServeConfig(
            batch_max=batch_max, flush_interval=flush_interval
        ),
    )
    assert outcome.ingest.shed == 0
    assert not outcome.load.stopped_early
    assert outcome.digest_match, (
        f"streamed digest {outcome.ingest.content_digest[:12]} != batch "
        f"for agents={agents} batch_max={batch_max}"
    )
    # The committed store also round-trips under strict verification.
    loaded = load_dataset(tmp_path / "store", strict=True)
    assert loaded.content_digest() == outcome.session.dataset.content_digest()


def test_threaded_mode_is_also_lossless(tmp_path):
    outcome = stream_session(
        CONFIG,
        tmp_path / "store",
        agents=4,
        serve_config=ServeConfig(batch_max=128, flush_interval=0.01),
        threaded=True,
    )
    assert outcome.ingest.shed == 0
    assert outcome.digest_match
    assert outcome.ingest.queue_max_depth <= 4096


def test_merged_edge_and_central_stats_equal_batch(tmp_path):
    outcome = stream_session(CONFIG, tmp_path / "store", agents=5)
    session = outcome.session
    corpus = session.world.corpus
    _, batch_stats = collect(
        corpus.events, corpus.file_records(), corpus.process_records()
    )
    assert outcome.merged_stats.as_dict() == batch_stats.as_dict()
    # The edge half never counts the central filter and vice versa.
    assert outcome.load.edge_stats.over_sigma == 0
    assert outcome.load.edge_stats.reported == 0
    assert outcome.ingest.stats.observed == 0


def test_resume_after_mid_batch_crash_is_digest_identical(tmp_path):
    directory = tmp_path / "store"
    with pytest.raises(InjectedCrash):
        stream_session(
            directory=directory,
            config=CONFIG,
            serve_config=ServeConfig(batch_max=200),
            faults=FaultSchedule(crash_after_parts=3),
        )
    # The crash landed after a part write but before its checkpoint:
    # two parts are durable, the third is an orphan resume overwrites.
    outcome = stream_session(
        directory=directory,
        config=CONFIG,
        serve_config=ServeConfig(batch_max=200),
        resume=True,
    )
    assert outcome.ingest.resumed_from == 400
    assert outcome.digest_match
    loaded = load_dataset(directory, strict=True)
    assert loaded.content_digest() == outcome.session.dataset.content_digest()


def test_digest_independent_of_agent_count(tmp_path):
    digests = set()
    for agents in (1, 2, 6):
        outcome = stream_session(
            CONFIG, tmp_path / f"store-{agents}", agents=agents
        )
        digests.add(outcome.ingest.content_digest)
    assert len(digests) == 1

"""Fault injection: backpressure, poison events, mid-stream SIGTERM.

Each fault family maps to one recovery mechanism: a full queue sheds (or
blocks) without deadlocking, undecodable wire records are quarantined
without touching the dataset, and a stop signal mid-stream still leaves
a strictly loadable, manifest-consistent store.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro import WorldConfig, build_session
from repro.obs import metrics as obs_metrics
from repro.pipeline import stream_session
from repro.serve import (
    BoundedQueue,
    FaultSchedule,
    IngestService,
    LoadGenerator,
    QueuePolicy,
    ServeConfig,
)
from repro.serve.queues import QueueClosed
from repro.telemetry.store import QUARANTINE_FILE, load_dataset, read_manifest

CONFIG = WorldConfig(seed=11, scale=0.005)


def _counter_value(name):
    return obs_metrics.get_registry().snapshot()["counters"].get(name, 0)


class TestQueueBackpressure:
    def test_shed_policy_never_exceeds_capacity(self):
        queue = BoundedQueue(4, QueuePolicy.SHED)
        before = _counter_value("serve.events_shed")
        accepted = [queue.put(i) for i in range(10)]
        assert accepted == [True] * 4 + [False] * 6
        assert len(queue) == 4
        assert queue.max_depth == 4
        assert queue.shed == 6
        assert _counter_value("serve.events_shed") - before == 6

    def test_block_policy_times_out_instead_of_deadlocking(self):
        queue = BoundedQueue(2, QueuePolicy.BLOCK)
        queue.put("a")
        queue.put("b")
        with pytest.raises(TimeoutError):
            queue.put("c", timeout=0.05)

    def test_blocked_producer_wakes_on_close(self):
        queue = BoundedQueue(1, QueuePolicy.BLOCK)
        queue.put("a")
        raised = []

        def producer():
            try:
                queue.put("b", timeout=5.0)
            except QueueClosed:
                raised.append(True)

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert raised == [True]

    def test_closed_queue_drains_then_raises(self):
        queue = BoundedQueue(4)
        queue.put("a")
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put("b")
        assert queue.get(timeout=0.1) == "a"
        with pytest.raises(QueueClosed):
            queue.get(timeout=0.1)

    def test_slow_consumer_shed_run_completes_with_exact_accounting(
        self, tmp_path, small_session
    ):
        corpus = small_session.world.corpus
        events = corpus.events[:2000]
        service = IngestService(
            tmp_path / "store",
            corpus.file_records(),
            corpus.process_records(),
            config=ServeConfig(
                queue_capacity=32,
                queue_policy=QueuePolicy.SHED,
                batch_max=8,
                flush_interval=0.005,
            ),
            # A deliberately slow writer (2.4 ms per 8-event part): the
            # unpaced producer must overrun the 32-slot queue and shed,
            # never block or deadlock.
            fault_hook=lambda stage: time.sleep(0.0024),
        )
        service.start()
        load = LoadGenerator(events, agents=2).run_threaded(service)
        report = service.join(timeout=60.0)
        assert report.shed > 0
        assert report.queue_max_depth <= 32
        assert report.ingested + report.shed == load.produced
        # The committed (lossy) store still loads strictly.
        loaded = load_dataset(tmp_path / "store", strict=True)
        assert len(loaded.events) == report.reported


class TestPoisonEvents:
    def test_poison_quarantined_without_touching_the_dataset(self, tmp_path):
        outcome = stream_session(
            CONFIG,
            tmp_path / "store",
            faults=FaultSchedule(poison_every=250),
        )
        assert outcome.load.poison_injected > 0
        assert outcome.ingest.poisoned == outcome.load.poison_injected
        assert outcome.digest_match
        quarantine = tmp_path / "store" / QUARANTINE_FILE
        records = [
            json.loads(line)
            for line in quarantine.read_text().splitlines()
        ]
        assert len(records) == outcome.ingest.poisoned
        assert all("garbage" in record["raw"] for record in records)

    def test_fault_schedule_rejects_degenerate_values(self):
        with pytest.raises(ValueError):
            FaultSchedule(poison_every=0)
        with pytest.raises(ValueError):
            FaultSchedule(crash_after_parts=-1)


class TestSigterm:
    def test_sigterm_mid_stream_leaves_loadable_store(
        self, tmp_path, small_session
    ):
        corpus = small_session.world.corpus
        service = IngestService(
            tmp_path / "store",
            corpus.file_records(),
            corpus.process_records(),
            config=ServeConfig(batch_max=64, flush_interval=0.01),
        )
        previous = signal.getsignal(signal.SIGTERM)
        signals_before = _counter_value("serve.stop_signals")
        try:
            service.install_signal_handler()
            service.start()
            generator = LoadGenerator(corpus.events, agents=3)
            submitted = 0
            closed = False
            for record in generator.merged_stream():
                if submitted == 1000:
                    os.kill(os.getpid(), signal.SIGTERM)
                try:
                    service.submit(record)
                except QueueClosed:
                    closed = True
                    break
                submitted += 1
            report = service.join(timeout=30.0)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert closed, "SIGTERM should have closed intake mid-stream"
        assert _counter_value("serve.stop_signals") - signals_before == 1
        assert 0 < report.reported < len(small_session.dataset.events)
        # Manifest-consistent: strict load verifies checksums, row
        # counts and the recorded content digest.
        loaded = load_dataset(tmp_path / "store", strict=True)
        manifest = read_manifest(tmp_path / "store")
        assert manifest.counts["events"] == report.reported == len(loaded.events)
        # What landed is an exact prefix of the batch-reported stream.
        assert loaded.events == small_session.dataset.events[: report.reported]

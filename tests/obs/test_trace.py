"""Tests for the hierarchical tracing spans."""

import json
import threading

import pytest

from repro.obs import trace
from repro.obs.trace import Tracer


class TestNesting:
    def test_spans_nest_under_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        roots = tracer.finished_spans()
        assert [root.name for root in roots] == ["outer"]
        assert [child.name for child in roots[0].children] == [
            "inner", "sibling",
        ]

    def test_attributes_recorded_and_settable(self):
        tracer = Tracer(enabled=True)
        with tracer.span("stage", shard=3) as span:
            span.set_attribute("events", 42)
        root = tracer.finished_spans()[0]
        assert root.attributes == {"shard": 3, "events": 42}

    def test_durations_monotone(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.finished_spans()[0]
        inner = outer.children[0]
        assert outer.end is not None and inner.end is not None
        assert outer.duration >= inner.duration >= 0.0

    def test_find_locates_nested_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert tracer.find("b") is not None
        assert tracer.find("missing") is None


class TestExceptionSafety:
    def test_exception_closes_span_and_propagates(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        root = tracer.finished_spans()[0]
        assert root.end is not None
        assert root.error == "ValueError"

    def test_exception_in_child_still_records_parent(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("parent"):
                with tracer.span("child"):
                    raise RuntimeError
        parent = tracer.finished_spans()[0]
        assert parent.name == "parent"
        assert parent.children[0].error == "RuntimeError"
        # The stack fully unwound: a new span starts a new tree.
        with tracer.span("next"):
            pass
        assert [r.name for r in tracer.finished_spans()] == ["parent", "next"]


class TestDisabledMode:
    def test_disabled_span_is_shared_noop(self):
        # No allocation while disabled: every call returns one object.
        assert trace.span("a") is trace.span("b")

    def test_disabled_records_nothing(self):
        with trace.span("invisible") as span:
            span.set_attribute("key", "value")
        assert trace.finished_spans() == []

    def test_disabled_overhead_is_one_branch(self):
        # Loose sanity bound rather than a flaky micro-benchmark: one
        # hundred thousand disabled span entries must be effectively
        # instant (they allocate nothing and never read the clock).
        import time

        start = time.perf_counter()
        for _ in range(100_000):
            with trace.span("noop"):
                pass
        assert time.perf_counter() - start < 1.0


class TestDecorator:
    def test_traced_records_when_enabled(self):
        tracer = Tracer(enabled=True)

        @tracer.traced()
        def work(x):
            return x * 2

        assert work(21) == 42
        assert tracer.finished_spans()[0].name.endswith("work")

    def test_traced_passthrough_when_disabled(self):
        tracer = Tracer(enabled=False)

        @tracer.traced("named")
        def work():
            return "ok"

        assert work() == "ok"
        assert tracer.finished_spans() == []


class TestThreads:
    def test_each_thread_gets_own_tree(self):
        tracer = Tracer(enabled=True)

        def worker(index):
            with tracer.span(f"thread-{index}"):
                with tracer.span("child"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        roots = tracer.finished_spans()
        assert len(roots) == 4
        assert all(len(root.children) == 1 for root in roots)


class TestResetAcrossThreads:
    def test_reset_clears_other_threads_open_stack(self):
        # Regression test: reset() used to clear only the calling
        # thread's open-span stack, so a span left open on another
        # thread kept grafting stale parents onto post-reset spans.
        tracer = Tracer(enabled=True)
        opened = threading.Event()
        release = threading.Event()

        def worker():
            handle = tracer.span("stale")
            handle.__enter__()
            opened.set()
            release.wait(5)
            with tracer.span("fresh"):
                pass
            handle.__exit__(None, None, None)

        thread = threading.Thread(target=worker)
        thread.start()
        assert opened.wait(5)
        tracer.reset()  # called from the main thread
        release.set()
        thread.join(5)

        # "fresh" must be a root, not a child of the cleared "stale".
        roots = {root.name for root in tracer.finished_spans()}
        assert "fresh" in roots
        fresh = tracer.find("fresh")
        assert fresh is not None and fresh.children == []

    def test_reset_prunes_dead_thread_registrations(self):
        tracer = Tracer(enabled=True)

        def worker():
            with tracer.span("done"):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert thread.ident in tracer._stacks
        tracer.reset()
        assert thread.ident not in tracer._stacks
        # The calling thread's own (live) registration survives resets.
        with tracer.span("mine"):
            pass
        tracer.reset()
        assert threading.get_ident() in tracer._stacks


class TestExportAndReset:
    def test_to_dicts_json_serializable(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root", scale=0.01):
            with tracer.span("leaf"):
                pass
        payload = json.dumps(tracer.to_dicts())
        decoded = json.loads(payload)
        assert decoded[0]["name"] == "root"
        assert decoded[0]["children"][0]["name"] == "leaf"

    def test_render_tree_shows_names_and_attributes(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root", shards=8):
            with tracer.span("child"):
                pass
        tree = tracer.render_tree()
        assert "root" in tree and "child" in tree
        assert "shards=8" in tree
        assert tree.index("root") < tree.index("child")

    def test_reset_drops_spans(self):
        tracer = Tracer(enabled=True)
        with tracer.span("gone"):
            pass
        tracer.reset()
        assert tracer.finished_spans() == []

    def test_current_span_tracks_innermost(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
        # Outside any span the no-op placeholder is returned.
        tracer.current_span().set_attribute("ignored", 1)

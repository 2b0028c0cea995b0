"""Unit tests for the tracing core: collectors, spans, stores."""

import os

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import (
    ObsCollector,
    TraceStore,
    new_trace_id,
    sum_self_seconds,
)


class TestObsCollector:
    def test_nesting_parents_under_innermost_open_span(self):
        collector = ObsCollector()
        outer = collector.begin("outer")
        inner = collector.begin("inner")
        assert inner["parent_id"] == outer["span_id"]
        collector.end(inner)
        sibling = collector.begin("sibling")
        assert sibling["parent_id"] == outer["span_id"]
        collector.end(sibling)
        collector.end(outer)
        assert outer["parent_id"] is None
        assert all(s["end"] is not None for s in collector.spans)

    def test_span_ids_embed_pid(self):
        collector = ObsCollector()
        record = collector.begin("x")
        assert record["span_id"].startswith(f"{os.getpid():x}.")

    def test_end_is_safe_against_double_close(self):
        collector = ObsCollector()
        outer = collector.begin("outer")
        inner = collector.begin("inner")
        collector.end(inner)
        collector.end(inner)  # double close must not pop the outer span
        assert collector._stack == [outer["span_id"]]
        collector.end(outer)
        assert collector._stack == []

    def test_events_ring_drops_oldest(self):
        collector = ObsCollector(max_events=3)
        for i in range(5):
            collector.event("tick", {"i": i})
        assert len(collector.events) == 3
        assert collector.dropped_events == 2
        assert [e["attrs"]["i"] for e in collector.events] == [2, 3, 4]

    def test_span_cap_stops_recording(self):
        collector = ObsCollector(max_spans=2)
        for _ in range(4):
            collector.end(collector.begin("s"))
        assert len(collector.spans) == 2

    def test_capture_withholds_open_spans(self):
        collector = obs_trace.install(ObsCollector())
        before = collector.begin("before")
        collector.end(before)
        with obs_trace.capture() as batch:
            open_span = collector.begin("open")
            closed = collector.begin("closed")
            collector.end(closed)
        names = [s["name"] for s in batch["spans"]]
        assert names == ["closed"]
        collector.end(open_span)

    def test_absorb_appends_child_batches(self):
        parent = ObsCollector()
        root = parent.begin("root")
        child = obs_trace.install(ObsCollector(parent.trace_id))
        child._stack.append(root["span_id"])  # simulate fork inheritance
        with obs_trace.capture() as batch:
            leaf = child.begin("leaf")
            child.end(leaf)
            child.event("child.event")
        obs_trace.install(parent)
        obs_trace.absorb(batch)
        parent.end(root)
        by_name = {s["name"]: s for s in parent.spans}
        assert by_name["leaf"]["parent_id"] == root["span_id"]
        assert any(e["name"] == "child.event" for e in parent.events)

    def test_absorb_counts_the_batchs_drops(self):
        parent = ObsCollector()
        parent.absorb({"events": [], "dropped": 2})
        assert parent.dropped_events == 2


class TestModuleGlobals:
    def test_install_active_clear_last(self):
        assert obs_trace.active() is None
        collector = obs_trace.start_trace()
        assert obs_trace.active() is collector
        assert obs_trace.clear() is collector
        assert obs_trace.active() is None
        assert obs_trace.last_trace() is collector

    def test_set_enabled_gates_start_trace(self):
        assert obs_trace.enabled()
        previous = obs_trace.set_enabled(False)
        assert previous is True
        assert not obs_trace.enabled()
        assert obs_trace.start_trace() is None
        obs_trace.set_enabled(True)
        assert obs_trace.start_trace() is not None

    def test_span_helper_is_noop_when_off(self):
        handle = obs_trace.span("nothing")
        handle.set(x=1)
        handle.close()  # must not raise

    def test_span_handle_close_is_idempotent(self):
        obs_trace.start_trace()
        with obs_trace.span("outer"):
            handle = obs_trace.span("inner")
            handle.close(verdict="ok")
            handle.close(verdict="changed")  # second close is a no-op
        collector = obs_trace.clear()
        inner = next(s for s in collector.spans if s["name"] == "inner")
        assert inner["attrs"]["verdict"] == "ok"

    def test_trace_ids_are_unique(self):
        assert new_trace_id() != new_trace_id()


class TestTraceStore:
    def test_rerooting_attaches_unknown_parents(self):
        store = TraceStore()
        store.ensure("job-1", "t1")
        attempt = store.add_span("job-1", "queue.attempt", 0.0, None, attempt=1)
        worker = obs_trace.install(ObsCollector("t1"))
        with obs_trace.capture() as batch:
            root = worker.begin("detect_bug")
            leaf = worker.begin("bmc.bound")
            worker.end(leaf)
            worker.end(root)
        store.absorb("job-1", batch, attach_to=attempt)
        view = store.to_json_dict("job-1")
        by_name = {s["name"]: s for s in view["spans"]}
        # The worker's root re-roots under the attempt; its subtree does not.
        assert by_name["detect_bug"]["parent_id"] == attempt
        assert by_name["bmc.bound"]["parent_id"] == root["span_id"]

    def test_close_span_settles_open_attempts(self):
        store = TraceStore()
        store.ensure("job-1", "t1")
        span_id = store.add_span("job-1", "queue.attempt", 1.0, None)
        store.close_span("job-1", span_id, 2.5, outcome="done")
        (span,) = store.to_json_dict("job-1")["spans"]
        assert span["end"] == 2.5
        assert span["attrs"]["outcome"] == "done"

    def test_unknown_job_is_a_noop(self):
        store = TraceStore()
        assert store.add_span("nope", "x", 0.0, 1.0) is None
        store.add_event("nope", "x")
        store.absorb("nope", {"spans": []})
        assert store.to_json_dict("nope") is None

    def test_job_cap_evicts_oldest(self):
        store = TraceStore(max_jobs=2)
        for i in range(3):
            store.ensure(f"job-{i}", f"t{i}")
            store.finish(f"job-{i}")
        assert not store.known("job-0")
        assert store.known("job-1") and store.known("job-2")

    def test_live_jobs_are_never_evicted(self):
        store = TraceStore(max_jobs=2)
        for i in range(5):
            store.ensure(f"job-{i}", f"t{i}")
        # Five live traces, cap two: the cap only counts finished ones.
        assert all(store.known(f"job-{i}") for i in range(5))
        for i in (3, 1, 4):
            store.finish(f"job-{i}")
        # Oldest-finished goes first, whatever the insertion order.
        assert not store.known("job-3")
        assert all(store.known(f"job-{i}") for i in (0, 1, 2, 4))

    def test_dropped_events_add_batch_drops_to_evictions(self):
        producer = obs_trace.install(ObsCollector(max_events=3))
        with obs_trace.capture() as batch:
            for i in range(5):
                producer.event("tick", {"i": i})
        assert len(batch["events"]) == 3 and batch["dropped"] == 2
        store = TraceStore(max_events=2)
        store.ensure("job-1", "t1")
        store.absorb("job-1", batch)
        # 2 lost by the producer's ring + 1 evicted by the store's.
        assert store.to_json_dict("job-1")["dropped_events"] == 3

    def test_event_ring_is_bounded(self):
        store = TraceStore(max_events=2)
        store.ensure("job-1", "t1")
        for i in range(4):
            store.add_event("job-1", "tick", i=i)
        view = store.to_json_dict("job-1")
        assert len(view["events"]) == 2
        assert view["dropped_events"] == 2


class TestSelfSeconds:
    def test_self_time_subtracts_direct_children(self):
        spans = [
            {"span_id": "a", "parent_id": None, "name": "root",
             "start": 0.0, "end": 10.0, "attrs": {}},
            {"span_id": "b", "parent_id": "a", "name": "child",
             "start": 1.0, "end": 7.0, "attrs": {}},
            {"span_id": "c", "parent_id": "a", "name": "child",
             "start": 7.0, "end": 9.0, "attrs": {}},
            {"span_id": "d", "parent_id": None, "name": "open",
             "start": 0.0, "end": None, "attrs": {}},
        ]
        table = sum_self_seconds(spans)
        assert table["root"] == [1.0, 10.0, pytest.approx(2.0)]
        assert table["child"] == [2.0, pytest.approx(8.0), pytest.approx(8.0)]
        assert "open" not in table

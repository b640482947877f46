"""The observability layer: spans, metrics, sinks, worker buffering.

The two contracts that matter most are at the end: the disabled path
allocates nothing (shared singletons all the way down), and serial and
parallel campaigns of the same seed emit identical funnel totals.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NULL_METRICS,
    NULL_OBSERVER,
    NULL_SPAN,
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    Metrics,
    NullSink,
    Observer,
    TraceError,
    Tracer,
    read_trace,
)


class TestSpans:
    def test_nesting_depth_and_parent(self):
        sink = MemorySink()
        tracer = Tracer(sink, epoch=0.0)
        with tracer.span("outer"):
            assert tracer.depth == 1
            with tracer.span("inner"):
                assert tracer.depth == 2
        assert tracer.depth == 0
        inner, outer = sink.events  # spans emit at close: inner first
        assert inner["name"] == "inner"
        assert inner["depth"] == 1
        assert inner["parent"] == "outer"
        assert outer["name"] == "outer"
        assert outer["depth"] == 0
        assert outer["parent"] is None

    def test_timing_and_offsets(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("work"):
            total = 0
            for i in range(10_000):
                total += i
        (record,) = sink.events
        assert record["dur"] >= 0.0
        assert record["t0"] >= 0.0
        # Nested span lies within its parent's window.
        sink.events.clear()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sink.events
        assert outer["t0"] <= inner["t0"]
        assert inner["t0"] + inner["dur"] <= outer["t0"] + outer["dur"] + 1e-6

    def test_attrs_and_set(self):
        sink = MemorySink()
        tracer = Tracer(sink, epoch=0.0)
        with tracer.span("s", fixed=True) as span:
            span.set(result=42)
        (record,) = sink.events
        assert record["attrs"] == {"fixed": True, "result": 42}

    def test_exception_records_error_attr(self):
        sink = MemorySink()
        tracer = Tracer(sink, epoch=0.0)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = sink.events
        assert record["attrs"]["error"] == "RuntimeError"
        assert tracer.depth == 0  # stack unwound

    def test_record_externally_timed_span(self):
        sink = MemorySink()
        tracer = Tracer(sink, epoch=0.0)
        with tracer.span("parent"):
            tracer.record("restore", 0.25, pages=7)
        restore, parent = sink.events
        assert restore["name"] == "restore"
        assert restore["dur"] == 0.25
        assert restore["depth"] == 1
        assert restore["parent"] == "parent"
        assert restore["attrs"] == {"pages": 7}


class TestMetrics:
    def test_counters_gauges_histograms(self):
        m = Metrics()
        m.count("trials")
        m.count("trials", 4)
        m.gauge("bugs", 1)
        m.gauge("bugs", 3)
        for v in range(1, 101):
            m.observe("latency", v)
        snap = m.snapshot()
        assert snap["counters"] == {"trials": 5}
        assert snap["gauges"] == {"bugs": 3}
        hist = snap["histograms"]["latency"]
        assert hist["count"] == 100
        assert hist["p50"] == 50
        assert hist["p95"] == 95
        assert hist["min"] == 1 and hist["max"] == 100

    def test_merge_is_worker_order_independent_for_counters(self):
        workers = []
        for base in (1, 10, 100):
            m = Metrics()
            m.count("trials", base)
            m.observe("latency", base)
            workers.append(m)
        forward, backward = Metrics(), Metrics()
        for m in workers:
            forward.merge(m)
        for m in reversed(workers):
            backward.merge(m)
        assert forward.counter_value("trials") == 111
        assert (
            forward.snapshot()["counters"] == backward.snapshot()["counters"]
        )
        assert sorted(forward.histograms["latency"].values) == sorted(
            backward.histograms["latency"].values
        )

    def test_merge_gauges_last_wins(self):
        a, b = Metrics(), Metrics()
        a.gauge("bugs", 1)
        b.gauge("bugs", 2)
        a.merge(b)
        assert a.snapshot()["gauges"]["bugs"] == 2

    def test_empty_histogram_summary(self):
        from repro.obs.metrics import Histogram

        assert Histogram().summary()["count"] == 0
        assert Histogram().percentile(95) == 0


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path, header={"seed": 7, "strategy": "S-INS-PAIR"})
        sink.emit({"kind": "event", "name": "hello", "attrs": {"n": 1}})
        sink.emit({"kind": "metrics", "counters": {"trials": 3}})
        sink.close()
        header, events = read_trace(path)
        assert header["seed"] == 7
        assert header["strategy"] == "S-INS-PAIR"
        assert [e["kind"] for e in events] == ["event", "metrics"]

    def test_torn_tail_is_discarded(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path, header={"seed": 7})
        sink.emit({"kind": "event", "name": "kept", "attrs": {}})
        sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "event", "name": "torn", "at')  # no newline
        header, events = read_trace(path)
        assert [e["name"] for e in events] == ["kept"]

    def test_torn_tail_is_cut_before_new_appends(self, tmp_path):
        # A reopened trace must cut its torn tail: the next record glued
        # onto the partial line would make read_trace stop there and
        # silently drop every record after it.
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path, header={"seed": 7})
        sink.emit({"kind": "event", "name": "1", "attrs": {}})
        sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "event", "name": "2", "at')  # torn mid-record
        sink = JsonlSink(path, header={"seed": 7}, append=True)
        assert sink.resumed  # the whole header survived: no second one
        sink.emit({"kind": "event", "name": "3", "attrs": {}})
        sink.emit({"kind": "event", "name": "4", "attrs": {}})
        sink.close()
        header, events = read_trace(path)
        assert header["seed"] == 7
        assert [e["name"] for e in events] == ["1", "3", "4"]

    def test_torn_header_is_written_again_on_append(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"kind": "header", "sch')  # killed mid-header
        sink = JsonlSink(path, header={"seed": 7}, append=True)
        assert not sink.resumed  # nothing earlier to continue from
        sink.emit({"kind": "event", "name": "kept", "attrs": {}})
        sink.close()
        header, events = read_trace(path)
        assert header["seed"] == 7
        assert [e["name"] for e in events] == ["kept"]

    def test_unterminated_final_line_is_torn_even_if_it_parses(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path, header={"seed": 7})
        sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "event", "name": "torn"}))  # no newline
        assert read_trace(path)[1] == []

    def test_missing_header_raises(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "event", "name": "x"}) + "\n")
        with pytest.raises(TraceError):
            read_trace(path)
        with open(path, "w", encoding="utf-8"):
            pass  # empty file
        with pytest.raises(TraceError):
            read_trace(path)

    def test_unknown_schema_raises(self, tmp_path):
        path = str(tmp_path / "future.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "header", "schema": 999}) + "\n")
        with pytest.raises(TraceError):
            read_trace(path)


class TestNullPath:
    """Disabled observability must be allocation-free shared singletons."""

    def test_span_returns_the_shared_singleton(self):
        assert NULL_OBSERVER.span("anything", x=1) is NULL_SPAN
        assert NULL_TRACER.span("anything") is NULL_SPAN
        with NULL_OBSERVER.span("s") as span:
            assert span is NULL_SPAN
            assert span.set(a=1) is NULL_SPAN

    def test_null_span_keeps_no_state(self):
        NULL_SPAN.set(leaked=True)
        assert NULL_SPAN.attrs == {}

    def test_null_observer_everything_is_noop(self):
        NULL_OBSERVER.count("x", 5)
        NULL_OBSERVER.gauge("x", 5)
        NULL_OBSERVER.observe("x", 5)
        NULL_OBSERVER.event("x", a=1)
        NULL_OBSERVER.record_span("x", 0.1)
        NULL_OBSERVER.flush_metrics()
        NULL_OBSERVER.replay([{"kind": "event"}])
        NULL_OBSERVER.close()
        assert NULL_METRICS.counter_value("x") == 0
        assert not NULL_OBSERVER.enabled

    def test_null_singletons_are_slotted(self):
        # __slots__ = () means no per-instance dict to grow: the
        # singletons cannot accumulate state and stay one allocation for
        # the process lifetime.
        for obj in (NULL_OBSERVER, NULL_SPAN, NULL_TRACER, NULL_METRICS):
            assert not hasattr(obj, "__dict__")
        assert not hasattr(NullSink(), "__dict__")


class TestObserverFacade:
    def test_event_and_flush(self):
        sink = MemorySink()
        obs = Observer(sink, epoch=0.0)
        obs.event("worker.up", worker_id=1)
        obs.count("trials", 2)
        obs.flush_metrics()
        event, metrics = sink.events
        assert event == {"kind": "event", "name": "worker.up", "attrs": {"worker_id": 1}}
        assert metrics["kind"] == "metrics"
        assert metrics["counters"] == {"trials": 2}

    def test_replay_preserves_order(self):
        worker = Observer(MemorySink(), epoch=0.0)
        with worker.span("stage4.trial", trial=0):
            pass
        with worker.span("stage4.trial", trial=1):
            pass
        campaign_sink = MemorySink()
        campaign = Observer(campaign_sink, epoch=0.0)
        campaign.replay(worker.sink.events)
        assert [e["attrs"]["trial"] for e in campaign_sink.events] == [0, 1]

    def test_close_flushes_final_metrics(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs = Observer(JsonlSink(path, header={}))
        obs.count("trials", 9)
        obs.close()
        _header, events = read_trace(path)
        assert events[-1]["kind"] == "metrics"
        assert events[-1]["counters"] == {"trials": 9}

"""Tracer semantics: nesting, determinism, exports, and the null path."""

import json
import threading

import pytest

from repro.obs import ManualClock, NullTracer, TRACE_SCHEMA_VERSION, Tracer


def traced_epoch(clock=None):
    """A small, fully deterministic span tree driven by a manual clock."""
    clock = clock or ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("epoch", epoch=0) as epoch:
        clock.tick(0.001)
        with tracer.span("collect", category="stage"):
            clock.tick(0.002)
            with tracer.span("shard", category="shard", tid=1, shard=0, items=10):
                clock.tick(0.003)
        with tracer.span("check", category="stage"):
            clock.tick(0.004)
        tracer.instant("verdict", input="demand", valid=True)
        epoch.annotate(cache_hit=False)
    return tracer


class TestSpanTree:
    def test_nesting_assigns_parents_implicitly(self):
        tracer = traced_epoch()
        events = {e["name"]: e for e in tracer.events()}
        assert events["epoch"]["parent"] is None
        assert events["collect"]["parent"] == events["epoch"]["id"]
        assert events["shard"]["parent"] == events["collect"]["id"]
        assert events["check"]["parent"] == events["epoch"]["id"]
        assert events["verdict"]["parent"] == events["epoch"]["id"]

    def test_manual_clock_times_are_exact(self):
        tracer = traced_epoch()
        events = {e["name"]: e for e in tracer.events()}
        assert events["epoch"]["t0"] == 0.0
        assert events["epoch"]["t1"] == pytest.approx(0.010)
        assert events["collect"]["t0"] == pytest.approx(0.001)
        assert events["collect"]["t1"] == pytest.approx(0.006)
        assert events["shard"]["t1"] == pytest.approx(0.006)
        assert events["verdict"]["t"] == pytest.approx(0.010)

    def test_annotations_and_kwargs_land_in_args(self):
        tracer = traced_epoch()
        events = {e["name"]: e for e in tracer.events()}
        assert events["epoch"]["args"] == {"epoch": 0, "cache_hit": False}
        assert events["shard"]["args"] == {"shard": 0, "items": 10}
        assert events["verdict"]["args"] == {"input": "demand", "valid": True}

    def test_explicit_parent_wins_for_pool_threads(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("stage") as stage:
            parent = tracer.current_id()

            def worker():
                # A pool thread has an empty stack; the explicit parent
                # keeps the slice under its dispatching stage.
                with tracer.span("slice", parent=parent, tid=2):
                    clock.tick(0.001)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        events = {e["name"]: e for e in tracer.events()}
        assert events["slice"]["parent"] == stage.span_id
        assert events["slice"]["tid"] == 2

    def test_current_id_outside_any_span_is_none(self):
        tracer = Tracer(clock=ManualClock())
        assert tracer.current_id() is None

    def test_manual_clock_rejects_negative_tick(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            clock.tick(-0.5)


class TestExports:
    def test_jsonl_is_byte_stable_across_runs(self):
        assert traced_epoch().to_jsonl() == traced_epoch().to_jsonl()

    def test_jsonl_meta_line_and_shape(self):
        lines = traced_epoch().to_jsonl().splitlines()
        meta = json.loads(lines[0])
        assert meta == {
            "type": "meta",
            "schema_version": TRACE_SCHEMA_VERSION,
            "clock": "monotonic",
            "wall_anchor": 0.0,  # injected clock => stable anchor
        }
        events = [json.loads(line) for line in lines[1:]]
        assert {e["type"] for e in events} == {"span", "instant"}
        for event in events:
            assert set(event) >= {"type", "id", "parent", "name", "cat", "tid", "args"}

    def test_chrome_trace_schema(self):
        payload = traced_epoch().to_chrome_trace()
        assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert payload["otherData"]["schema_version"] == TRACE_SCHEMA_VERSION
        for event in payload["traceEvents"]:
            assert event["ph"] in ("X", "i")
            assert event["pid"] == 1
            assert "span_id" in event["args"]
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            else:
                assert event["s"] == "t"
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        epoch = next(e for e in spans if e["name"] == "epoch")
        assert epoch["ts"] == 0.0
        assert epoch["dur"] == pytest.approx(10_000.0)  # microseconds

    def test_write_round_trip(self, tmp_path):
        tracer = traced_epoch()
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        tracer.write_chrome_trace(str(chrome))
        tracer.write_jsonl(str(jsonl))
        assert json.loads(chrome.read_text()) == json.loads(
            json.dumps(tracer.to_chrome_trace())
        )
        assert jsonl.read_text() == tracer.to_jsonl()

    def test_real_clock_records_wall_anchor(self):
        tracer = Tracer()
        assert tracer.wall_anchor > 0.0


class TestNullTracer:
    def test_null_tracer_is_disabled_and_shares_one_span(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        span_a = tracer.span("epoch", epoch=1)
        span_b = tracer.span("collect")
        assert span_a is span_b  # the shared constant: no allocation
        with span_a as span:
            span.annotate(anything="goes")
        tracer.instant("verdict", input="demand")
        assert tracer.current_id() is None

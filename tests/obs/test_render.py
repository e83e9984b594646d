"""Trace loading and rendering: both export formats, one tree."""

import pytest

from repro.obs import ManualClock, Tracer, load_trace_file, render_trace

from tests.obs.test_trace import traced_epoch


def flagged_tracer():
    """Two epochs, one carrying a flagged verdict with provenance."""
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    provenance = {
        "input": "topology",
        "valid": False,
        "num_violations": 1,
        "num_evaluated": 15,
        "fired": [
            {
                "name": "topology/live-iff-up/atla~wash",
                "kind": "topology/live-iff-up",
                "entity": "atla~wash",
                "description": "live iff up",
                "error": 1.0,
                "signals": [
                    {
                        "signal": "links/atla~wash",
                        "disposition": "confirmed",
                        "confidence": "up",
                        "source": "counters; probes",
                    }
                ],
            }
        ],
        "redundancies": ["R1"],
    }
    for epoch in range(2):
        with tracer.span("epoch", epoch=epoch):
            clock.tick(0.001)
            with tracer.span("check", category="stage"):
                clock.tick(0.002)
            tracer.instant("verdict", input="demand", valid=True)
            tracer.instant("verdict", input="topology", valid=False, provenance=provenance)
    return tracer


class TestLoadTraceFile:
    def test_chrome_and_jsonl_load_to_the_same_events(self, tmp_path):
        tracer = traced_epoch()
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        tracer.write_chrome_trace(str(chrome))
        tracer.write_jsonl(str(jsonl))
        from_chrome = load_trace_file(str(chrome))
        from_jsonl = load_trace_file(str(jsonl))
        # Chrome export rounds to whole tenths of microseconds; compare
        # structure exactly and times approximately.
        assert [e["name"] for e in from_chrome] == [e["name"] for e in from_jsonl]
        assert [e["parent"] for e in from_chrome] == [e["parent"] for e in from_jsonl]
        for chrome_event, jsonl_event in zip(from_chrome, from_jsonl):
            for key in ("t0", "t1", "t"):
                if key in jsonl_event:
                    assert chrome_event[key] == pytest.approx(jsonl_event[key], abs=1e-9)

    def test_unrecognized_format_raises(self, tmp_path):
        bad = tmp_path / "not_a_trace.json"
        bad.write_text('{"some": "object"}\n')
        with pytest.raises(ValueError, match="unrecognized trace format"):
            load_trace_file(str(bad))

    def test_empty_file_yields_no_events(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert load_trace_file(str(empty)) == []


class TestRenderTrace:
    def test_header_counts_spans_instants_epochs(self):
        text = render_trace(flagged_tracer().events())
        assert text.splitlines()[0] == "trace: 4 spans, 4 instants, 2 epoch spans"

    def test_tree_nests_stages_under_epochs(self):
        lines = render_trace(flagged_tracer().events()).splitlines()
        epoch_line = next(line for line in lines if line.lstrip().startswith("epoch"))
        check_line = next(line for line in lines if line.lstrip().startswith("check"))
        assert len(check_line) - len(check_line.lstrip()) > len(epoch_line) - len(
            epoch_line.lstrip()
        )

    def test_flagged_verdicts_render_provenance_block(self):
        text = render_trace(flagged_tracer().events())
        assert "topology: 1 violations / 15 invariants  [R1]" in text
        assert "topology/live-iff-up/atla~wash err=100.00% via links/atla~wash" in text
        assert "(confirmed@up)" in text

    def test_provenance_only_mode_hides_spans(self):
        text = render_trace(flagged_tracer().events(), provenance_only=True)
        assert "epoch" not in text.splitlines()[1]
        assert "topology: 1 violations" in text
        # Valid verdicts carry no provenance payload and are omitted.
        assert "demand" not in text

    def test_max_epochs_truncates(self):
        text = render_trace(flagged_tracer().events(), max_epochs=1)
        assert text.count("epoch 3.000 ms") == 1
        assert text.endswith("... truncated after 1 epochs")

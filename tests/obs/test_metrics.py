"""Metrics registry: counter/gauge/histogram semantics and exposition."""

import math

import pytest

from repro.obs import DEFAULT_LATENCY_BUCKETS, MetricsRegistry


def parse_exposition(text):
    """Parse a Prometheus text exposition into helps, types, and samples.

    Minimal but strict: every non-comment line must be
    ``name{labels} value`` with parseable labels and a float value.
    """
    helps, types, samples = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, help_text = line[len("# HELP "):].split(" ", 1)
            helps[name] = help_text
        elif line.startswith("# TYPE "):
            name, kind = line[len("# TYPE "):].split(" ", 1)
            types[name] = kind
        else:
            assert line and not line.startswith("#"), f"unexpected line: {line!r}"
            head, value = line.rsplit(" ", 1)
            labels = {}
            if "{" in head:
                name, _, body = head.partition("{")
                assert body.endswith("}")
                for pair in body[:-1].split(","):
                    key, _, raw = pair.partition("=")
                    assert raw.startswith('"') and raw.endswith('"')
                    labels[key] = raw[1:-1]
            else:
                name = head
            samples[(name, tuple(sorted(labels.items())))] = float(value)
    return helps, types, samples


class TestCounter:
    def test_inc_and_value(self):
        counter = MetricsRegistry().counter("events_total", "Events seen.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("events_total", "Events seen.")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_set_to_is_idempotent_snapshot_write(self):
        counter = MetricsRegistry().counter("events_total", "Events seen.")
        counter.set_to(7)
        counter.set_to(7)
        assert counter.value == 7.0
        with pytest.raises(ValueError):
            counter.set_to(-1)

    def test_labelled_counter_requires_labels(self):
        counter = MetricsRegistry().counter("by_stage_total", "x", labels=("stage",))
        with pytest.raises(ValueError):
            counter.inc()
        counter.labels(stage="collect").inc()
        with pytest.raises(ValueError):
            counter.labels(phase="collect")

    def test_unlabelled_fast_path_never_opens_a_labelled_family(self):
        # The unlabelled child is resolved once and reused; a labelled
        # family must keep raising however often it is asked, and must
        # never grow a ``()`` child.
        registry = MetricsRegistry()
        counter = registry.counter("by_stage_total", "x", labels=("stage",))
        gauge = registry.gauge("depth_by_stage", "x", labels=("stage",))
        histogram = registry.histogram("lat_by_stage", "x", labels=("stage",))
        for _ in range(2):
            for call in (counter.inc, lambda: gauge.set(1.0), gauge.inc, gauge.dec,
                         lambda: histogram.observe(0.1), lambda: counter.value):
                with pytest.raises(ValueError, match="has labels"):
                    call()
        assert registry.samples() == []

    def test_unlabelled_fast_path_is_the_exposed_child(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "Events seen.")
        gauge = registry.gauge("depth", "Queue depth.")
        for _ in range(3):
            counter.inc()
            gauge.set(counter.value)
        assert counter.labels().value == gauge.labels().value == 3.0
        assert "events_total 3" in registry.render() and "depth 3" in registry.render()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth", "Queue depth.")
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == pytest.approx(3.0)


class TestHistogram:
    def test_observations_fill_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "Latency.", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        _, _, samples = parse_exposition(registry.render())
        assert samples[("lat_seconds_bucket", (("le", "0.01"),))] == 1.0
        assert samples[("lat_seconds_bucket", (("le", "0.1"),))] == 2.0
        assert samples[("lat_seconds_bucket", (("le", "1"),))] == 3.0
        assert samples[("lat_seconds_bucket", (("le", "+Inf"),))] == 4.0
        assert samples[("lat_seconds_count", ())] == 4.0
        assert samples[("lat_seconds_sum", ())] == pytest.approx(5.555)

    def test_default_buckets_are_sorted_latency_bounds(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(0.0005)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", "x", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", "x", buckets=())


class TestRegistry:
    def test_registration_is_idempotent_for_matching_shape(self):
        registry = MetricsRegistry()
        first = registry.counter("events_total", "Events.")
        again = registry.counter("events_total", "Events.")
        assert first is again

    def test_shape_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("events_total", "Events.")
        with pytest.raises(ValueError):
            registry.gauge("events_total", "Events.")
        with pytest.raises(ValueError):
            registry.counter("events_total", "Events.", labels=("stage",))

    def test_invalid_metric_and_label_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name", "x")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "x", labels=("__reserved",))

    def test_every_sample_has_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "Counts a.").inc()
        registry.gauge("b_level", "Level of b.").set(1.0)
        registry.histogram("c_seconds", "C latency.").observe(0.2)
        helps, types, samples = parse_exposition(registry.render())
        for name, _ in samples:
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in types:
                    family = name[: -len(suffix)]
            assert family in helps, f"{name} lacks # HELP"
            assert family in types, f"{name} lacks # TYPE"
        assert types == {"a_total": "counter", "b_level": "gauge", "c_seconds": "histogram"}

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x", labels=("k",)).labels(k='we"ird\\v').inc()
        rendered = registry.render()
        assert 'k="we\\"ird\\\\v"' in rendered

    def test_values_render_without_float_noise(self):
        registry = MetricsRegistry()
        registry.gauge("g", "g").set(2.0)
        _, _, samples = parse_exposition(registry.render())
        assert samples[("g", ())] == 2.0
        assert "\ng 2\n" in registry.render()

    def test_render_round_trips_through_parser(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A.").inc(3)
        registry.gauge("ratio", "R.").set(1 / 3)
        _, _, samples = parse_exposition(registry.render())
        assert samples[("a_total", ())] == 3.0
        assert math.isclose(samples[("ratio", ())], 1 / 3)

    def test_write(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a_total", "A.").inc()
        path = tmp_path / "metrics.prom"
        registry.write(str(path))
        assert path.read_text() == registry.render()

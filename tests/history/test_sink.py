"""HistorySink write-through: reports in, durable rows + metrics out.

Includes the two determinism acceptance tests the ISSUE pins:

* two identical seeded engine runs through deterministic sinks produce
  **byte-identical** store files;
* a seeded catalog replay (S02, outage scenario) fires exactly the
  pinned alert sequence -- the hermetic replacement for watching a
  live deployment page.
"""

import pytest

from repro.engine import ValidationEngine
from repro.history.alerts import AlertEngine
from repro.history.sink import HistoryConfig, HistorySink
from repro.history.store import HistoryStore, RetentionPolicy
from repro.obs.metrics import MetricsRegistry

from tests.engine.conftest import random_epoch


def _report(corrupted=False, seed=0):
    topology, snapshot, inputs = random_epoch(8, seed, corrupted=corrupted)
    with ValidationEngine(topology) as engine:
        return engine.validate(snapshot, inputs), engine.stats


class TestRecord:
    def test_record_writes_epoch_verdicts_and_signals(self, tmp_path):
        report, stats = _report()
        path = str(tmp_path / "h.db")
        with HistorySink(HistoryConfig(path=path, deterministic=True)) as sink:
            epoch_id = sink.record(
                report, source="engine", elapsed_s=0.5, updates=42, stats=stats
            )
            row = sink.store.tail(1)[0]
            verdicts = sink.store.verdicts_for(epoch_id=epoch_id)
        assert epoch_id == 1
        assert row.ts == report.timestamp
        assert row.recorded_at == report.timestamp  # deterministic anchor
        assert row.elapsed_s == 0.0  # zeroed in deterministic mode
        assert row.updates == 42
        assert row.detected == report.detected_anything()
        assert {v.input_name for v in verdicts} == set(report.verdicts)
        total = (
            row.signals_confirmed + row.signals_repaired
            + row.signals_raw + row.signals_unknown
        )
        assert total > 0

    def test_live_mode_keeps_latency_and_wall_anchor(self, tmp_path):
        report, _ = _report()
        path = str(tmp_path / "h.db")
        with HistorySink(HistoryConfig(path=path)) as sink:
            sink.record(report, elapsed_s=0.25)
            row = sink.store.tail(1)[0]
        assert row.elapsed_s == 0.25
        assert row.recorded_at != report.timestamp  # wall clock, not virtual

    def test_provenance_stored_only_for_invalid_inputs(self, tmp_path):
        # A clean random epoch validates everywhere; the S02 outage
        # world actually fails verdicts (corrupted counters at size 8
        # get repaired back to valid, so they won't do).
        from repro.scenarios import scenario_by_id

        clean, _ = _report(corrupted=False)
        dirty = scenario_by_id("S02").build(seed=0).run_epoch(timestamp=0.0).report
        invalid = {name for name, v in dirty.verdicts.items() if not v.valid}
        assert invalid, "S02 epoch 0 must fail at least one verdict"
        with HistorySink(
            HistoryConfig(path=str(tmp_path / "h.db"), deterministic=True)
        ) as sink:
            clean_id = sink.record(clean)
            dirty_id = sink.record(dirty)
            assert sink.store.provenance_for(clean_id) == {}
            stored = sink.store.provenance_for(dirty_id)
        assert set(stored) == invalid
        for payload in stored.values():
            assert payload["valid"] is False

    def test_counter_snapshot_cadence(self, tmp_path):
        report, stats = _report()
        with HistorySink(
            HistoryConfig(
                path=str(tmp_path / "h.db"),
                deterministic=True,
                counter_snapshot_every=2,
            )
        ) as sink:
            for _ in range(5):
                sink.record(report, stats=stats)
            series = sink.store.counter_series("engine_epochs_total")
            counts = sink.store.row_counts()
        assert [epoch_id for epoch_id, _, _ in series] == [2, 4]
        assert counts["counters"] > 0

    def test_deterministic_snapshots_drop_timing_families(self, tmp_path):
        report, stats = _report()
        with HistorySink(
            HistoryConfig(
                path=str(tmp_path / "h.db"),
                deterministic=True,
                counter_snapshot_every=1,
            )
        ) as sink:
            sink.record(report, stats=stats)
            conn = sink.store._db
            names = {
                row[0]
                for row in conn.execute("SELECT DISTINCT name FROM counters")
            }
        assert names  # snapshot happened
        for name in names:
            assert "seconds" not in name and "utilisation" not in name

    def test_retention_sweep_cadence(self, tmp_path):
        report, _ = _report()
        with HistorySink(
            HistoryConfig(
                path=str(tmp_path / "h.db"),
                deterministic=True,
                retention=RetentionPolicy(max_epochs=3),
                retention_every=5,
            )
        ) as sink:
            for _ in range(10):
                sink.record(report)
            assert sink.store.epoch_count() == 3

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="counter_snapshot_every"):
            HistoryConfig(path=str(tmp_path / "h.db"), counter_snapshot_every=-1)


class TestMetricsFamilies:
    def test_history_families_on_shared_registry(self, tmp_path):
        registry = MetricsRegistry()
        report, _ = _report()
        with HistorySink(
            HistoryConfig(path=str(tmp_path / "h.db"), deterministic=True),
            metrics=registry,
        ) as sink:
            sink.record(report)
            sink.compact()
        rendered = registry.render()
        for family in (
            "history_rows_total",
            "history_store_bytes",
            "history_epochs_written_total",
            "history_compactions_total",
            "history_retention_deleted_total",
        ):
            assert f"# TYPE {family} " in rendered
        assert registry.get("history_epochs_written_total").value == 1
        assert registry.get("history_compactions_total").value == 1
        rows = registry.get("history_rows_total")
        assert rows.labels(table="epochs").value == 1
        assert registry.get("history_store_bytes").value > 0

    def test_compact_returns_result_and_counts(self, tmp_path):
        registry = MetricsRegistry()
        report, _ = _report()
        with HistorySink(
            HistoryConfig(
                path=str(tmp_path / "h.db"),
                deterministic=True,
                retention=RetentionPolicy(max_epochs=2),
            ),
            metrics=registry,
        ) as sink:
            for _ in range(6):
                sink.record(report)
            result = sink.compact()
        assert result.epochs_deleted == 4
        assert registry.get("history_retention_deleted_total").value == 4


class TestEngineWriteThrough:
    def test_engine_records_each_validate_call(self, tmp_path):
        topology, snapshot, inputs = random_epoch(8, 0)
        path = str(tmp_path / "h.db")
        registry = MetricsRegistry()
        with HistorySink(
            HistoryConfig(path=path, deterministic=True), metrics=registry
        ) as sink:
            with ValidationEngine(topology, metrics=registry, history=sink) as engine:
                engine.validate(snapshot, inputs)
                engine.validate(snapshot, inputs)
            rows = sink.store.epochs()
        assert [row.source for row in rows] == ["engine", "engine"]
        assert all(row.sealed_by == "batch" for row in rows)
        assert registry.get("history_epochs_written_total").value == 2

    def test_vector_backend_also_records(self, tmp_path):
        topology, snapshot, inputs = random_epoch(8, 0)
        with HistorySink(
            HistoryConfig(path=str(tmp_path / "h.db"), deterministic=True)
        ) as sink:
            with ValidationEngine(
                topology, backend="vector", history=sink
            ) as engine:
                engine.validate(snapshot, inputs)
                engine.validate(snapshot, inputs)  # cache-hit fast path
            rows = sink.store.epochs()
        assert [row.backend for row in rows] == ["vector", "vector"]


class TestByteReproducibility:
    def test_two_identical_seeded_runs_produce_identical_files(self, tmp_path):
        paths = [str(tmp_path / name) for name in ("a.db", "b.db")]
        for path in paths:
            topology, snapshot, inputs = random_epoch(8, 3, corrupted=True)
            with HistorySink(
                HistoryConfig(
                    path=path, deterministic=True, counter_snapshot_every=2
                )
            ) as sink:
                with ValidationEngine(topology, history=sink) as engine:
                    for _ in range(4):
                        engine.validate(snapshot, inputs)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()


class TestCatalogReplayAlerts:
    def test_s02_replay_fires_pinned_alert_sequence(self, tmp_path):
        """Seeded S02 outage replay: the alert sequence is part of the
        contract -- if this changes, the alerting semantics changed."""
        from repro.scenarios import scenario_by_id

        world = scenario_by_id("S02").build(seed=0)
        registry = MetricsRegistry()
        alerts = AlertEngine(
            ["transition:any", "trend:detection_rate>0.5@3"],
            metrics=registry,
        )
        with HistorySink(
            HistoryConfig(path=str(tmp_path / "h.db"), deterministic=True),
            alerts=alerts,
            metrics=registry,
        ) as sink:
            for epoch in range(6):
                outcome = world.run_epoch(timestamp=float(epoch) * 10.0)
                sink.record(outcome.report, source="engine")
            ledger = [
                (a.epoch_id, a.ts, a.rule, a.key, a.severity)
                for a in sink.store.alerts()
            ]
        assert ledger == [
            (1, 0.0, "transition:any", "topology", "critical"),
            (3, 20.0, "trend:detection_rate>0.5@3", "detection_rate", "warning"),
        ]

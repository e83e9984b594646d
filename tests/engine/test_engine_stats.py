"""Engine counters: cache hits, stage timings, entity reuse, export."""

import pytest

from repro.engine import EngineStats, EpochInput, ValidationEngine, engine_registry
from repro.scenarios.catalog import scenario_by_id

from tests.engine.conftest import random_epoch


@pytest.fixture(scope="module")
def replayed_engine():
    """An engine after a 3-epoch replay on an unchanged topology."""
    world = scenario_by_id("S16").build(seed=1)
    epochs = []
    for epoch in range(3):
        outcome = world.run_epoch(timestamp=float(epoch))
        epochs.append(EpochInput(snapshot=outcome.snapshot, inputs=outcome.inputs))
    engine = ValidationEngine(world.topology, config=world.hodor_config)
    engine.replay(epochs)
    yield engine
    engine.close()


class TestCacheCounters:
    def test_hits_increment_across_replay(self, replayed_engine):
        stats = replayed_engine.stats
        assert stats.epochs == 3
        assert stats.cache_misses == 1
        # The acceptance bar: unchanged topology ==> hits >= epochs - 1.
        assert stats.cache_hits >= stats.epochs - 1
        assert stats.cache_hit_rate == pytest.approx(2 / 3)

    def test_store_counters_agree(self, replayed_engine):
        store = replayed_engine.cache_store
        assert store.hits == replayed_engine.stats.cache_hits
        assert store.misses == replayed_engine.stats.cache_misses

    def test_topology_change_counts_as_miss(self):
        topo_a, snap_a, inputs_a = random_epoch(8, 30)
        topo_b, snap_b, inputs_b = random_epoch(10, 31)
        with ValidationEngine(topo_a) as engine:
            engine.validate(snap_a, inputs_a)
            engine.validate(snap_b, inputs_b, topology=topo_b)
            engine.validate(snap_a, inputs_a)
            engine.validate(snap_b, inputs_b, topology=topo_b)
            assert engine.stats.cache_misses == 2
            assert engine.stats.cache_hits == 2


class TestStageTimings:
    def test_stage_seconds_populated(self, replayed_engine):
        stats = replayed_engine.stats
        for stage in ("collect", "harden", "check", "total"):
            assert stats.stage_seconds[stage] > 0.0
        stage_sum = sum(
            stats.stage_seconds[s] for s in ("collect", "harden", "check")
        )
        assert stats.stage_seconds["total"] >= stage_sum
        assert stats.mean_epoch_ms() > 0.0


class TestRenderAndMerge:
    def test_render_lines(self, replayed_engine):
        rendered = replayed_engine.stats.render()
        assert "epochs processed  : 3" in rendered
        assert "backend           : python" in rendered
        assert "cache hits/misses : 2/1" in rendered

    def test_merge_sums_counters(self):
        a = EngineStats(epochs=2, cache_hits=1, cache_misses=1)
        a.record_stage("total", 0.5)
        b = EngineStats(epochs=3, cache_hits=3, cache_misses=0)
        b.record_stage("total", 0.25)
        a.merge(b)
        assert a.epochs == 5
        assert a.cache_hits == 4
        assert a.cache_misses == 1
        assert a.stage_seconds["total"] == pytest.approx(0.75)

    def test_record_reuse_accumulates_per_stage(self):
        stats = EngineStats(backend="vector")
        stats.record_reuse("collect", 10, 90)
        stats.record_reuse("collect", 5, 95)
        stats.record_reuse("check.demand", 1, 9)
        assert stats.entities_recomputed == {"collect": 15, "check.demand": 1}
        assert stats.entities_reused == {"collect": 185, "check.demand": 9}
        assert stats.total_entities_recomputed == 16
        assert stats.total_entities_reused == 194
        assert stats.reuse_rate() == pytest.approx(194 / 210)

    def test_merge_folds_reuse_and_repair_counters(self):
        a = EngineStats(backend="vector")
        a.record_reuse("collect", 2, 8)
        a.repair_solves = 3
        b = EngineStats()
        b.record_reuse("collect", 1, 4)
        b.record_reuse("harden.flows", 5, 0)
        b.repair_reuses = 7
        a.merge(b)
        assert a.entities_recomputed == {"collect": 3, "harden.flows": 5}
        assert a.entities_reused == {"collect": 12, "harden.flows": 0}
        assert a.repair_solves == 3
        assert a.repair_reuses == 7

    def test_merge_adopts_stage_keys_missing_from_self(self):
        a = EngineStats()
        b = EngineStats()
        b.record_stage("check.demand", 0.125)  # fine-grained key a never saw
        b.record_reuse("harden.flows", 2, 8)
        a.merge(b)
        assert a.stage_seconds["check.demand"] == pytest.approx(0.125)
        assert a.entities_recomputed == {"harden.flows": 2}
        assert a.entities_reused == {"harden.flows": 8}
        # The standard keys survive untouched.
        for stage in ("collect", "harden", "check", "total"):
            assert a.stage_seconds[stage] == 0.0

    def test_merge_keeps_receiver_backend(self):
        a = EngineStats(backend="vector")
        b = EngineStats(backend="python", epochs=4)
        a.merge(b)
        assert a.backend == "vector"
        assert a.epochs == 4

    def test_merged_stats_round_trip_through_dict(self):
        a = EngineStats(epochs=1, cache_hits=1, repair_solves=2)
        a.record_stage("collect", 0.25)
        b = EngineStats(epochs=2, cache_misses=3, repair_reuses=5)
        b.record_stage("check.demand", 0.5)
        b.record_reuse("collect", 3, 9)
        a.merge(b)
        payload = a.to_dict()
        assert EngineStats.from_dict(payload).to_dict() == payload

    def test_reuse_lines_render_only_when_reuse_was_recorded(self):
        plain = EngineStats()
        assert "entities          :" not in plain.render()
        stats = EngineStats(backend="vector")
        stats.record_reuse("collect", 25, 75)
        stats.repair_solves = 2
        stats.repair_reuses = 6
        rendered = stats.render()
        assert "entities          : 25 recomputed / 75 reused (75% reuse)" in rendered
        assert "repair solves     : 2 fresh / 6 cached" in rendered

    def test_to_dict_round_trips_through_json(self):
        import json

        stats = EngineStats(backend="vector", epochs=2)
        stats.record_reuse("collect", 1, 3)
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["backend"] == "vector"
        assert payload["entities_recomputed"] == {"collect": 1}
        assert payload["entities_reused"] == {"collect": 3}
        assert payload["reuse_rate"] == pytest.approx(0.75)

    def test_empty_stats_render_and_rates(self):
        stats = EngineStats()
        assert stats.cache_hit_rate == 0.0
        assert stats.mean_epoch_ms() == 0.0
        assert "epochs processed  : 0" in stats.render()


def _by_sample(registry):
    return {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in registry.samples()
    }


class TestMetricsExport:
    def test_engine_registry_exposition(self, replayed_engine):
        registry = engine_registry(replayed_engine.stats)
        rendered = registry.render()
        assert "# HELP engine_epochs_total" in rendered
        assert "# TYPE engine_epochs_total counter" in rendered
        assert 'engine_stage_seconds_total{stage="all"}' in rendered
        by_sample = _by_sample(registry)
        assert by_sample[("engine_epochs_total", ())] == 3.0
        assert by_sample[("engine_cache_hits_total", ())] == 2.0
        assert by_sample[("engine_cache_misses_total", ())] == 1.0
        assert by_sample[("engine_cache_hit_rate", ())] == pytest.approx(2 / 3)
        assert by_sample[("engine_mean_epoch_ms", ())] > 0.0
        assert by_sample[("engine_backend_info", (("backend", "python"),))] == 1.0
        stats_dict = replayed_engine.stats.to_dict()
        for stage in ("collect", "harden", "check"):
            key = ("engine_stage_seconds_total", (("stage", stage),))
            assert by_sample[key] == pytest.approx(stats_dict["stage_seconds"][stage])

    def test_reuse_metrics_exported(self):
        stats = EngineStats(backend="vector")
        stats.record_reuse("collect", 4, 6)
        stats.record_reuse("check.demand", 1, 9)
        stats.repair_solves = 2
        stats.repair_reuses = 5
        by_sample = _by_sample(engine_registry(stats))
        assert by_sample[("engine_entities_recomputed_total", ())] == 5.0
        assert by_sample[("engine_entities_reused_total", ())] == 15.0
        assert by_sample[("engine_reuse_rate", ())] == pytest.approx(0.75)
        assert by_sample[("engine_repair_solves_total", ())] == 2.0
        assert by_sample[("engine_repair_reuses_total", ())] == 5.0
        assert by_sample[("engine_stage_recomputed_total", (("stage", "collect"),))] == 4.0
        assert by_sample[("engine_stage_reused_total", (("stage", "check.demand"),))] == 9.0

    def test_engine_registry_projection_is_idempotent(self, replayed_engine):
        registry = engine_registry(replayed_engine.stats)
        again = engine_registry(replayed_engine.stats, registry=registry)
        assert again is registry
        assert registry.get("engine_epochs_total").value == 3.0  # not doubled

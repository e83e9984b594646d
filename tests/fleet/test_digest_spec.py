"""Digest and spec unit tests: fingerprint semantics, spec validation."""

import dataclasses

import pytest

from repro.fleet.digest import digest_report
from repro.fleet.spec import (
    FleetConfig,
    TenantSpec,
    synthetic_fleet,
    tenant_store_path,
)
from repro.scenarios.catalog import scenario_by_id


def _epoch_and_report(seed=3):
    from repro.stream import EpochAssembler, StreamPipeline, make_feeds

    world = scenario_by_id("S01").build(seed=seed)
    outcome = world.run_epoch(timestamp=0.0)
    epochs = [(0.0, outcome.snapshot)]
    feeds = make_feeds(epochs)
    from repro.engine import ValidationEngine

    assembler = EpochAssembler(list(feeds), lateness_s=1.0)
    engine = ValidationEngine(world.topology, config=world.hodor_config)
    result = StreamPipeline(
        list(feeds.values()),
        assembler,
        engine,
        inputs_for={0.0: outcome.inputs},
    ).run()
    return result.epochs[0], result.reports[0]


class TestDigest:
    def test_fingerprint_stable_across_calls(self):
        epoch, report = _epoch_and_report()
        a = digest_report("t0", epoch, report, latency_s=0.1)
        b = digest_report("t0", epoch, report, latency_s=9.9)
        assert a.fingerprint == b.fingerprint  # latency excluded
        assert a.latency_s != b.latency_s

    def test_fingerprint_covers_tenant(self):
        epoch, report = _epoch_and_report()
        a = digest_report("t0", epoch, report)
        b = digest_report("t1", epoch, report)
        assert a.fingerprint != b.fingerprint

    def test_fingerprint_covers_epoch_counters(self):
        epoch, report = _epoch_and_report()
        a = digest_report("t0", epoch, report)
        bumped = dataclasses.replace(epoch, duplicates=epoch.duplicates + 1)
        b = digest_report("t0", bumped, report)
        assert a.fingerprint != b.fingerprint

    def test_digest_carries_sorted_verdicts_and_counters(self):
        epoch, report = _epoch_and_report()
        digest = digest_report("t0", epoch, report)
        names = [v[0] for v in digest.verdicts]
        assert names == sorted(names)
        assert set(names) == set(report.verdicts)
        assert digest.updates == epoch.updates
        assert digest.complete == epoch.complete
        assert digest.violations == sum(
            v.num_violations for v in report.verdicts.values()
        )
        assert digest.detected == report.detected_anything()
        payload = digest.to_dict()
        assert payload["fingerprint"] == digest.fingerprint
        assert payload["verdicts"] == [list(v) for v in digest.verdicts]


class TestSpec:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            TenantSpec(tenant="")
        with pytest.raises(ValueError, match="must not contain"):
            TenantSpec(tenant="a/b")
        with pytest.raises(ValueError, match="unknown backend"):
            TenantSpec(tenant="t0", backend="gpu")
        with pytest.raises(ValueError, match="epochs"):
            TenantSpec(tenant="t0", epochs=0)
        with pytest.raises(ValueError, match="nodes"):
            TenantSpec(tenant="t0", nodes=1)

    @pytest.mark.parametrize(
        "field,value", [("reorder", 1.5), ("drop", -0.1), ("delay", 2.0), ("fail", -1.0)]
    )
    def test_spec_rejects_perturbation_outside_unit_interval(self, field, value):
        # Rejected at construction, before the spec is dispatched to a
        # worker where it would only fail later as a tenant error.
        with pytest.raises(ValueError, match=f"{field} must be a probability"):
            TenantSpec(tenant="t", **{field: value})

    def test_fleet_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            FleetConfig(workers=0)
        with pytest.raises(ValueError, match="poll_s"):
            FleetConfig(poll_s=0.0)

    def test_spec_pickles_small(self):
        import pickle

        spec = TenantSpec(tenant="t0", nodes=200, epochs=1000)
        blob = pickle.dumps(spec)
        assert len(blob) < 1024  # specs travel by value, cheaply
        assert pickle.loads(blob) == spec

    def test_synthetic_fleet_seeds_decorrelated(self):
        fleet = synthetic_fleet(5, nodes=12, epochs=4, seed=3)
        assert [s.tenant for s in fleet] == [f"t{i:04d}" for i in range(5)]
        seeds = [s.seed for s in fleet]
        assert len(set(seeds)) == 5
        assert all(s.nodes == 12 and s.epochs == 4 for s in fleet)

    def test_tenant_store_path_layout(self):
        assert tenant_store_path("/x/stores", "t0001") == "/x/stores/t0001.sqlite"

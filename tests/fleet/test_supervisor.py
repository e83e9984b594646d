"""Supervisor integration tests: crash recovery, quarantine, stores.

These drive real worker processes.  Fleets are kept small (tenants of
8-16 nodes, a handful of epochs) so the suite stays in tier-1 time,
but every failure path exercised here is the one a 100-tenant fleet
leans on.
"""

import os
import time

import pytest

from repro.fleet import (
    AdmissionPolicy,
    FleetConfig,
    FleetSupervisor,
    TenantSpec,
    run_tenant,
)
from repro.fleet.spec import synthetic_fleet, tenant_store_path


class TestCrashRecovery:
    def test_worker_crash_no_verdict_loss_or_duplication(self):
        """Hard-kill the only worker mid-epoch; every tenant still ends
        with exactly one digest per epoch, and the rescheduled run's
        overlap is fingerprint-identical to a standalone run."""
        specs = [
            TenantSpec(tenant="t0", nodes=16, epochs=25, seed=1),
            TenantSpec(tenant="t1", nodes=16, epochs=25, seed=2),
        ]
        config = FleetConfig(workers=1, chaos_crash=(0, 2))
        result = FleetSupervisor(specs, config).run()

        assert result.crashes == 1
        assert result.statuses() == {"done": 2}
        for spec in specs:
            summary = result.tenants[spec.tenant]
            assert summary.reschedules >= 1
            # No loss, no duplication: one digest per epoch timestamp.
            timestamps = [d.timestamp for d in summary.digests]
            assert len(timestamps) == len(set(timestamps)) == spec.epochs
            # Byte-identical to an untroubled standalone run.
            standalone = run_tenant(spec)
            assert [d.fingerprint for d in summary.digests] == [
                d.fingerprint for d in standalone.digests
            ]

    def test_crash_with_spare_worker_keeps_fleet_moving(self):
        specs = [
            TenantSpec(tenant="t0", nodes=12, epochs=15, seed=1),
            TenantSpec(tenant="t1", nodes=12, epochs=15, seed=2),
        ]
        config = FleetConfig(workers=2, chaos_crash=(0, 2))
        result = FleetSupervisor(specs, config).run()
        assert result.crashes == 1
        assert result.statuses() == {"done": 2}
        for summary in result.tenants.values():
            assert len(summary.digests) == 15


class TestWakesOnReadiness:
    """The idle supervisor blocks on its workers' results channels and
    process sentinels, with ``poll_s`` only as the timeout: a fleet whose
    poll is far longer than its run still finishes promptly, through a
    crash too (the dead worker's sentinel wakes it)."""

    POLL_S = 30.0

    def _run_timed(self, specs, **config):
        start = time.perf_counter()
        result = FleetSupervisor(specs, FleetConfig(poll_s=self.POLL_S, **config)).run()
        return result, time.perf_counter() - start

    def test_fleet_finishes_far_inside_one_poll(self):
        specs = synthetic_fleet(2, nodes=8, epochs=3, seed=5)
        result, elapsed = self._run_timed(specs, workers=2)
        assert result.statuses() == {"done": 2}
        assert elapsed < self.POLL_S / 2

    def test_crash_is_noticed_far_inside_one_poll(self):
        specs = synthetic_fleet(2, nodes=8, epochs=4, seed=5)
        result, elapsed = self._run_timed(specs, workers=1, chaos_crash=(0, 2))
        assert result.crashes == 1
        assert result.statuses() == {"done": 2}
        assert elapsed < self.POLL_S / 2


class TestQuarantine:
    def test_duplicate_storm_tenant_evicted_healthy_unharmed(self):
        """A tenant whose feed duplicates 90% of deliveries is evicted;
        healthy tenants complete with full digest sets."""
        specs = [
            TenantSpec(tenant="bad", nodes=10, epochs=8, seed=1, duplicate=0.9),
            TenantSpec(tenant="good-a", nodes=10, epochs=8, seed=2),
            TenantSpec(tenant="good-b", nodes=10, epochs=8, seed=3),
        ]
        policy = AdmissionPolicy(
            max_duplicates_per_epoch=0, sustain_epochs=2, max_readmissions=0
        )
        config = FleetConfig(workers=2, admission=policy)
        result = FleetSupervisor(specs, config).run()

        assert result.tenants["bad"].status == "evicted"
        assert result.admission["bad"]["status"] == "evicted"
        for tenant in ("good-a", "good-b"):
            summary = result.tenants[tenant]
            assert summary.status == "done"
            assert len(summary.digests) == 8
            # Healthy tenants' digests are unaffected by the eviction.
            standalone = run_tenant(result_spec(specs, tenant))
            assert [d.fingerprint for d in summary.digests] == [
                d.fingerprint for d in standalone.digests
            ]

    def test_readmitted_tenant_gets_fresh_run(self):
        """Quarantine with a short cooldown: the tenant is readmitted,
        re-runs from scratch, and (still misbehaving) is evicted --
        the flap ladder terminates."""
        specs = [
            TenantSpec(tenant="flappy", nodes=10, epochs=6, seed=1, duplicate=0.9),
            TenantSpec(tenant="steady", nodes=10, epochs=20, seed=2),
        ]
        policy = AdmissionPolicy(
            max_duplicates_per_epoch=0,
            sustain_epochs=2,
            cooldown_epochs=3,
            max_readmissions=1,
        )
        result = FleetSupervisor(specs, FleetConfig(workers=2, admission=policy)).run()
        flappy = result.admission["flappy"]
        assert flappy["readmissions"] == 1
        assert flappy["quarantines"] == 2
        assert result.tenants["flappy"].status == "evicted"
        steady = result.tenants["steady"]
        assert steady.status == "done"
        assert len(steady.digests) == 20


class TestStores:
    def test_store_per_tenant_layout(self, tmp_path):
        store_dir = str(tmp_path / "stores")
        specs = synthetic_fleet(3, nodes=8, epochs=3, seed=4, history=True)
        config = FleetConfig(workers=2, store_dir=store_dir)
        result = FleetSupervisor(specs, config).run()
        assert result.statuses() == {"done": 3}
        for spec in specs:
            path = tenant_store_path(store_dir, spec.tenant)
            assert result.tenants[spec.tenant].store_path == path
            assert os.path.exists(path)
        # The merged fleet exposition carries every tenant's stream and
        # history families.
        exposition = result.metrics.render()
        for family in (
            "stream_updates_total",
            "stream_epochs_sealed_total",
            "stream_assembly_latency_seconds",
            "history_epochs_written_total",
        ):
            assert f"# TYPE {family} " in exposition, family
        assert "stream_assembly_latency_seconds_bucket" in exposition

    def test_store_bytes_deterministic_across_runs(self, tmp_path):
        spec = TenantSpec(tenant="t0", nodes=8, epochs=3, seed=4, history=True)
        blobs = []
        for run in ("a", "b"):
            store_dir = str(tmp_path / run)
            config = FleetConfig(workers=1, store_dir=store_dir)
            result = FleetSupervisor([spec], config).run()
            assert result.statuses() == {"done": 1}
            with open(tenant_store_path(store_dir, "t0"), "rb") as handle:
                blobs.append(handle.read())
        assert blobs[0] == blobs[1]


class TestManifest:
    def test_write_manifest(self, tmp_path):
        specs = synthetic_fleet(2, nodes=8, epochs=2, seed=9)
        result = FleetSupervisor(specs, FleetConfig(workers=1)).run()
        manifest = result.write_manifest(str(tmp_path))
        import json

        with open(manifest, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["statuses"] == {"done": 2}
        assert payload["total_epochs_sealed"] == 4
        prom = (tmp_path / "fleet.prom").read_text()
        assert "stream_updates_total" in prom

    def test_duplicate_tenant_ids_rejected(self):
        specs = [TenantSpec(tenant="t0"), TenantSpec(tenant="t0")]
        with pytest.raises(ValueError, match="duplicate tenant"):
            FleetSupervisor(specs)


def result_spec(specs, tenant):
    return next(s for s in specs if s.tenant == tenant)

"""The synthetic WAN recipe stays fresh: every check runs on every epoch.

``synthetic_workload`` is the one fixture behind every synthetic fleet
tenant and every soak.  Its telemetry must never age past the engine's
staleness bound however many epochs it spans; otherwise the validator
quietly stops evaluating demand and spends its epochs repairing a
stale network instead of validating a fresh one.
"""

import random

import pytest

from repro.fleet import TenantSpec, run_tenant
from repro.fleet.scenario import churn_snapshot, run_soak, synthetic_workload
from repro.fleet.spec import synthetic_fleet
from repro.history.alerts import AlertEngine
from repro.history.sink import HistoryConfig, HistorySink
from repro.history.store import HistoryStore, RetentionPolicy
from repro.net.topology import EXTERNAL_PEER
from repro.obs.metrics import MetricsRegistry


def _sample(exposition: str, name: str) -> float:
    (line,) = [line for line in exposition.splitlines() if line.startswith(name + " ")]
    return float(line.split()[1])


class TestChurnSnapshot:
    def _base(self):
        workload = synthetic_workload(8, 1, seed=3, churn=0.0, epoch_spacing_s=10.0)
        return workload.epochs[0][1]

    def test_every_reading_is_restamped_and_the_input_is_not_mutated(self):
        base = self._base()
        stamps = {key: reading.timestamp for key, reading in base.counters.items()}
        churned = churn_snapshot(base, 0.5, random.Random(1), 70.0)
        assert churned.timestamp == 70.0
        assert {r.timestamp for r in churned.counters.values()} == {70.0}
        assert {k: r.timestamp for k, r in base.counters.items()} == stamps

    def test_a_churned_link_scales_all_four_counters_by_one_factor(self):
        base = self._base()
        churned = churn_snapshot(base, 1.0, random.Random(2), 10.0)
        for (node, peer), reading in base.counters.items():
            if peer == EXTERNAL_PEER:
                assert churned.counters[node, peer].rx_rate == reading.rx_rate
                continue
            factor = churned.counters[node, peer].rx_rate / reading.rx_rate
            back = churned.counters[peer, node].tx_rate / base.counters[peer, node].tx_rate
            assert factor == pytest.approx(back)
            assert 0.9 <= factor <= 1.1

    @pytest.mark.parametrize("fraction,draws_per_link", [(0.0, 1), (1.0, 2)])
    def test_draws_one_number_per_link_plus_one_per_churned_link(
        self, fraction, draws_per_link
    ):
        base = self._base()
        links = {
            frozenset(key) for key in base.counters if key[1] != EXTERNAL_PEER
        }
        rng, reference = random.Random(5), random.Random(5)
        churn_snapshot(base, fraction, rng, 10.0)
        for _ in range(draws_per_link * len(links)):
            reference.random()
        assert rng.getstate() == reference.getstate()


def test_default_synthetic_tenant_evaluates_demand_every_epoch():
    """The default tenant: 20 nodes, 10 epochs 10 s apart -- past the
    60 s staleness bound, where a fixture that kept its first stamps
    stopped evaluating demand at t=70 s."""
    (spec,) = synthetic_fleet(1, backend="vector")
    assert (spec.nodes, spec.epochs, spec.epoch_spacing_s) == (20, 10, 10.0)
    run = run_tenant(spec)
    assert [d.timestamp for d in run.digests] == [i * 10.0 for i in range(10)]
    for digest in run.digests:
        demand = {name: evaluated for name, _v, _n, evaluated in digest.verdicts}["demand"]
        assert demand == 2 * spec.nodes, digest.timestamp
        assert not digest.detected, digest.timestamp
    assert _sample(run.exposition, "engine_repair_solves_total") == 0


def test_soak_evaluates_demand_every_epoch(tmp_path):
    """The soak's reordering and duplication, without its source drops:
    a dropped update is a real hole, which the validator is right to
    flag and repair."""
    nodes, epochs = 20, 12
    spec = TenantSpec(
        tenant="soak", nodes=nodes, epochs=epochs, backend="vector", reorder=0.10, duplicate=0.02
    )
    with HistorySink(HistoryConfig(path=str(tmp_path / "soak.db"), deterministic=True)) as sink:
        result = run_soak(spec, history=sink)
    assert result.epochs_sealed == epochs
    store = HistoryStore(str(tmp_path / "soak.db"), writer=False)
    try:
        rows = store.epochs()
        demand = store.verdicts_for(input_name="demand")
    finally:
        store.close()
    assert [row.ts for row in rows] == [i * 10.0 for i in range(epochs)]
    assert not any(row.detected for row in rows)
    assert [v.num_evaluated for v in demand] == [2 * nodes] * epochs
    assert _sample(result.metrics.render(), "engine_repair_solves_total") == 0


@pytest.mark.parametrize("backend", ["python", "vector"])
def test_perturbed_soak_seals_every_epoch(backend):
    """The soak's acceptance shape at 16 nodes: 10% churn, 10% in-window
    reordering, 1% source drops and 2% duplicated deliveries.  Every
    epoch seals (a wedged watermark would leave epochs open), the
    perturbations really ran, and the exposition carries the stream
    families an operator scrapes."""
    epochs = 12
    spec = TenantSpec(
        tenant="soak", nodes=16, epochs=epochs, backend=backend,
        churn=0.10, reorder=0.10, drop=0.01, duplicate=0.02,
    )
    result = run_soak(spec)
    assert result.epochs_sealed == result.epochs_streamed == epochs
    assert result.feed_dropped > 0
    assert result.duplicates > 0
    exposition = result.metrics.render()
    for family in (
        "stream_updates_total",
        "stream_late_updates_total",
        "stream_duplicate_updates_total",
        "stream_feed_dropped_total",
        "stream_queue_depth",
        "stream_epochs_sealed_total",
        "stream_assembly_latency_seconds_bucket",
    ):
        assert family in exposition, family
    if backend == "vector":
        # Delta-aware: at 10% churn most units are served from state.
        assert _sample(exposition, "engine_reuse_rate") > 0.5


def test_retention_capped_soak_writes_through_and_compacts(tmp_path):
    """The long-horizon history soak at 16 nodes: every epoch is written
    through a store capped at 4 epochs, compaction brings the file back
    to the cap, fired alerts land in the store's ledger, and the
    exposition carries the history, alert and stream families.  With 2%
    source drops one dropped counter flips demand invalid at t=80 s,
    so ``transition:any`` fires once (1% drops flip nothing in 12
    epochs at this size)."""
    epochs, cap = 12, 4
    path = str(tmp_path / "soak.db")
    spec = TenantSpec(
        tenant="soak", nodes=16, epochs=epochs, reorder=0.10, drop=0.02, duplicate=0.02
    )
    registry = MetricsRegistry()
    config = HistoryConfig(path=path, retention=RetentionPolicy(max_epochs=cap))
    alerts = AlertEngine(("transition:any",), metrics=registry)
    with HistorySink(config, alerts=alerts, metrics=registry) as sink:
        result = run_soak(spec, history=sink, metrics=registry)
    assert result.epochs_sealed == epochs
    assert result.history_epochs == cap
    assert result.history_compaction_deleted == epochs - cap
    assert result.history_bytes_compacted <= result.history_bytes
    with HistoryStore(path, writer=False) as store:
        ledger = [(alert.rule, alert.key, alert.ts) for alert in store.alerts()]
    assert ledger == [("transition:any", "demand", 80.0)]
    assert result.alerts_fired == len(ledger)
    exposition = result.metrics.render()
    for family in (
        "history_rows_total",
        "history_store_bytes",
        "history_epochs_written_total",
        "history_compactions_total",
        "history_retention_deleted_total",
        "alerts_fired_total",
        "stream_updates_total",
    ):
        assert f"# TYPE {family} " in exposition, family
    assert _sample(exposition, "history_epochs_written_total") == epochs

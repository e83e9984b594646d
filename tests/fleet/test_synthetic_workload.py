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
from repro.history.sink import HistoryConfig, HistorySink
from repro.history.store import HistoryStore
from repro.net.topology import EXTERNAL_PEER


def _repair_solves(exposition: str) -> float:
    (line,) = [
        line for line in exposition.splitlines()
        if line.startswith("engine_repair_solves_total ")
    ]
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
    assert _repair_solves(run.exposition) == 0


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
    assert _repair_solves(result.metrics.render()) == 0


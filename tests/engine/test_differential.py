"""Differential harness: engine output must equal the serial path.

Replays the full scenario catalog and randomized Waxman worlds through
both the serial :class:`~repro.core.pipeline.Hodor` and the
:class:`~repro.engine.ValidationEngine`, asserting the resulting
:class:`~repro.core.report.ValidationReport` objects are observably
identical -- verdict for verdict, invariant for invariant, finding for
finding, in the same order.  Floats must match bitwise except values
the R2 lstsq repair produced, which :func:`repro.engine.compare_reports`
holds to a tight ``math.isclose`` tolerance.
"""

import pytest

from repro.control.demand_service import records_from_matrix
from repro.control.infra import ControlPlane
from repro.core.pipeline import Hodor
from repro.core.signals import Confidence
from repro.engine import ValidationEngine, compare_reports
from repro.net import NetworkSimulator, gravity_demand
from repro.scenarios.catalog import all_scenarios, scenario_by_id
from repro.telemetry import Jitter, ProbeEngine, TelemetryCollector
from repro.topologies import abilene, b4, geant

from tests.engine.conftest import random_epoch


@pytest.mark.parametrize("scenario", all_scenarios(), ids=lambda s: s.scenario_id)
def test_catalog_scenario_matches_serial(scenario):
    """Every catalog entry, validated by both paths."""
    world = scenario.build(seed=7)
    outcome = world.run_epoch()
    engine = ValidationEngine(world.topology, config=world.hodor_config)
    report = engine.validate(outcome.snapshot, outcome.inputs)
    diffs = compare_reports(outcome.report, report)
    assert not diffs, f"{scenario.scenario_id}: {diffs[:5]}"


@pytest.mark.parametrize("scenario_id", ["S01", "S07", "S12", "S16"])
def test_multi_epoch_timeline_matches_serial(scenario_id):
    """A single long-lived engine stays equivalent across a timeline."""
    world = scenario_by_id(scenario_id).build(seed=3)
    engine = ValidationEngine(world.topology, config=world.hodor_config)
    for epoch in range(3):
        outcome = world.run_epoch(timestamp=float(epoch))
        report = engine.validate(outcome.snapshot, outcome.inputs)
        diffs = compare_reports(outcome.report, report)
        assert not diffs, f"epoch {epoch}: {diffs[:5]}"
    assert engine.stats.cache_hits == 2
    assert engine.stats.cache_misses == 1


@pytest.mark.parametrize(
    "factory,total", [(abilene, 20.0), (b4, 300.0), (geant, 30.0)],
    ids=["abilene", "b4", "geant"],
)
def test_realistic_topology_clean_epoch(factory, total):
    """A clean epoch on each bundled WAN is all-valid on every path."""
    topology = factory()
    demand = gravity_demand(topology.node_names(), total=total, seed=1)
    truth = NetworkSimulator(topology, demand, strategy="single").run()
    snapshot = TelemetryCollector(
        Jitter(0.005, seed=2), probe_engine=ProbeEngine(seed=3)
    ).collect(truth)
    inputs = ControlPlane(topology).compute_inputs(
        snapshot, records_from_matrix(demand, seed=4)
    )
    serial = Hodor(topology).validate(snapshot, inputs)
    assert serial.all_valid
    for backend in ("python", "vector"):
        report = ValidationEngine(topology, backend=backend).validate(snapshot, inputs)
        assert report.all_valid, backend
        diffs = compare_reports(serial, report)
        assert not diffs, f"{backend}: {diffs[:5]}"


@pytest.mark.parametrize(
    "size,seed", [(6, 0), (8, 1), (12, 2), (16, 3), (24, 4)]
)
def test_random_world_matches_serial(size, seed):
    """Randomized clean worlds: bitwise-equal reports."""
    topology, snapshot, inputs = random_epoch(size, seed)
    serial = Hodor(topology).validate(snapshot, inputs)
    engine = ValidationEngine(topology)
    report = engine.validate(snapshot, inputs)
    diffs = compare_reports(serial, report)
    assert not diffs, f"{diffs[:5]}"


@pytest.mark.parametrize("size,seed", [(8, 10), (12, 11), (16, 12)])
def test_corrupted_world_exercises_repair_and_matches(size, seed):
    """Corrupted counters force the R1/R2 repair path through both sides."""
    topology, snapshot, inputs = random_epoch(size, seed, corrupted=True)
    serial = Hodor(topology).validate(snapshot, inputs)
    assert any(f.code == "R1_COUNTER_MISMATCH" for f in serial.hardened.findings)
    engine = ValidationEngine(topology)
    report = engine.validate(snapshot, inputs)
    diffs = compare_reports(serial, report)
    assert not diffs, f"{diffs[:5]}"


def test_repaired_values_compared_with_tolerance():
    """The comparator treats REPAIRED values as lstsq-derived."""
    topology, snapshot, inputs = random_epoch(8, 10, corrupted=True)
    serial = Hodor(topology).validate(snapshot, inputs)
    repaired = [
        v
        for v in serial.hardened.edge_flows.values()
        if v.confidence == Confidence.REPAIRED
    ]
    if not repaired:
        pytest.skip("corruption did not yield a repair on this seed")
    # The engine's report with an identical snapshot must still match.
    engine = ValidationEngine(topology)
    assert not compare_reports(serial, engine.validate(snapshot, inputs))

"""Differential harness for ``mode="incremental"``.

The incremental engine's whole contract is report-for-report equality
with the serial path while recomputing only what changed.  These tests
drive it through the scenario catalog, randomized churn streams,
corruption that appears and disappears between epochs (so repairs from
the *previous* epoch must dirty this one), and controller-input
changes (demand, believed topology, drain bits) that arrive with an
unchanged snapshot.
"""

import dataclasses
import random

import pytest

from repro.core.pipeline import Hodor
from repro.engine import ValidationEngine, compare_reports
from repro.experiments import churn_snapshot
from repro.scenarios.catalog import all_scenarios

from tests.engine.conftest import random_epoch


def _assert_matches(serial, report, context):
    diffs = compare_reports(serial, report)
    assert not diffs, f"{context}: {diffs[:5]}"


@pytest.mark.parametrize("scenario", all_scenarios(), ids=lambda s: s.scenario_id)
def test_catalog_scenario_matches_serial(scenario):
    """Every catalog entry over a 3-epoch timeline, one long-lived engine."""
    world = scenario.build(seed=7)
    with ValidationEngine(
        world.topology, config=world.hodor_config, mode="incremental"
    ) as engine:
        for epoch in range(3):
            outcome = world.run_epoch(timestamp=float(epoch))
            report = engine.validate(outcome.snapshot, outcome.inputs)
            _assert_matches(
                outcome.report, report, f"{scenario.scenario_id} epoch {epoch}"
            )


@pytest.mark.parametrize(
    "size,seed,churn",
    [(8, 20, 0.0), (12, 21, 0.05), (16, 22, 0.3), (12, 23, 1.0)],
)
def test_churned_world_matches_serial(size, seed, churn):
    """Randomized churn streams at several churn rates, against fresh Hodors."""
    topology, snapshot, inputs = random_epoch(size, seed)
    rng = random.Random(seed)
    with ValidationEngine(topology, mode="incremental") as engine:
        for epoch in range(5):
            serial = Hodor(topology).validate(snapshot, inputs)
            report = engine.validate(snapshot, inputs)
            _assert_matches(serial, report, f"churn={churn} epoch {epoch}")
            snapshot = churn_snapshot(snapshot, churn, rng, float(epoch + 1))
        if churn == 0.0:
            # Nothing moved after priming, so nothing may recompute.
            assert engine.stats.reuse_rate() > 0.7


@pytest.mark.parametrize("size,seed", [(8, 10), (12, 11)])
def test_corruption_appearing_and_disappearing(size, seed):
    """Repairs from the previous epoch dirty this one when they vanish.

    Epoch order: clean -> corrupted (repair appears) -> clean (repair
    disappears; the repaired values revert) -> corrupted again.  Each
    transition must propagate through the drain hardening that consumed
    the repaired flows.
    """
    topology, clean_snap, inputs = random_epoch(size, seed)
    _, corrupt_snap, _ = random_epoch(size, seed, corrupted=True)
    with ValidationEngine(topology, mode="incremental") as engine:
        for epoch, snap in enumerate(
            (clean_snap, corrupt_snap, clean_snap, corrupt_snap)
        ):
            serial = Hodor(topology).validate(snap, inputs)
            report = engine.validate(snap, inputs)
            _assert_matches(serial, report, f"epoch {epoch}")
        assert engine.stats.repair_solves > 0
        # The repeated corrupted epoch replays the identical component,
        # so the conservation solver cache must have hit.
        assert engine.stats.repair_reuses > 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda inputs: dataclasses.replace(inputs, demand=inputs.demand.scaled(2.0)),
        lambda inputs: dataclasses.replace(
            inputs, topology=_without_first_link(inputs.topology)
        ),
        lambda inputs: dataclasses.replace(
            inputs, drains=_flipped_drains(inputs.drains)
        ),
    ],
    ids=["demand-scaled", "believed-link-dropped", "drain-bit-flipped"],
)
def test_input_change_with_identical_snapshot(mutate):
    """Controller-input changes must dirty the checks even with zero churn."""
    topology, snapshot, inputs = random_epoch(10, 40)
    changed_inputs = mutate(inputs)
    with ValidationEngine(topology, mode="incremental") as engine:
        for epoch, epoch_inputs in enumerate((inputs, changed_inputs, inputs)):
            serial = Hodor(topology).validate(snapshot, epoch_inputs)
            report = engine.validate(snapshot, epoch_inputs)
            _assert_matches(serial, report, f"epoch {epoch}")


def _without_first_link(topology):
    believed = topology.copy()
    link = believed.links()[0]
    believed.remove_link(link.a, link.b)
    return believed


def _flipped_drains(drains):
    flipped = dataclasses.replace(drains, nodes=dict(drains.nodes))
    node = sorted(flipped.nodes)[0] if flipped.nodes else None
    if node is not None:
        flipped.nodes[node] = not flipped.nodes[node]
    return flipped


def test_identical_replay_reuses_every_entity():
    """A byte-identical epoch recomputes nothing and reuses everything."""
    topology, snapshot, inputs = random_epoch(12, 50)
    serial = Hodor(topology).validate(snapshot, inputs)
    with ValidationEngine(topology, mode="incremental") as engine:
        engine.validate(snapshot, inputs)
        primed = engine.stats.total_entities_recomputed
        assert primed > 0  # the priming epoch computes everything
        assert engine.stats.total_entities_reused == 0
        report = engine.validate(snapshot, inputs)
        _assert_matches(serial, report, "replay")
        assert engine.stats.total_entities_recomputed == primed
        assert engine.stats.total_entities_reused == primed


def test_reset_reprimes_from_scratch():
    """After ``reset()`` the next epoch recomputes everything, correctly."""
    topology, snapshot, inputs = random_epoch(8, 60)
    serial = Hodor(topology).validate(snapshot, inputs)
    with ValidationEngine(topology, mode="incremental") as engine:
        engine.validate(snapshot, inputs)
        primed = engine.stats.total_entities_recomputed
        for validator in engine._validators.values():
            validator.reset()
        report = engine.validate(snapshot, inputs)
        _assert_matches(serial, report, "post-reset")
        assert engine.stats.total_entities_recomputed == 2 * primed


def test_unknown_mode_is_rejected():
    topology, _snapshot, _inputs = random_epoch(6, 0)
    with pytest.raises(ValueError, match="unknown engine mode"):
        ValidationEngine(topology, mode="sideways")


def test_mode_property_and_stats_mode():
    topology, snapshot, inputs = random_epoch(6, 0)
    with ValidationEngine(topology, mode="incremental") as engine:
        assert engine.mode == "incremental"
        assert engine.stats.mode == "incremental"
        engine.validate(snapshot, inputs)
        assert engine.stats.epochs == 1
        assert engine.stats.stage_seconds["total"] > 0.0

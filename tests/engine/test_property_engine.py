"""Property tests for the engine's equivalence guarantees.

Two invariances the engine promises on either backend, checked over
randomized worlds:

1. **Batching invariance** -- replaying an epoch stream in one
   ``replay`` call equals validating the epochs one at a time.
2. **Cache-path invariance** -- an epoch served from a topology-cache
   hit equals the same epoch served by a cache miss, including after
   intervening topology changes.

And one about the vector backend's bookkeeping:

3. **Handed-over tally == walked tally** -- the violations and counts
   the vector backend hands each ``CheckResult`` from its per-entity
   tallies are what a fresh walk of that report's ``results`` finds,
   and the verdicts and provenance built from them are the python
   engine's, over the catalog timelines and over fault streams where
   violations appear, persist and disappear, entities change how many
   results they hold, and the drop total dirties every demand entry.
"""

import dataclasses
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.invariants import InvariantStatus
from repro.engine import EpochInput, ValidationEngine, compare_reports
from repro.fleet.scenario import churn_snapshot
from repro.net.topology import EXTERNAL_PEER, Link
from repro.scenarios.catalog import all_scenarios

from tests.engine.conftest import random_epoch

backends = st.sampled_from(["python", "vector"])
world_seeds = st.integers(min_value=0, max_value=3)


@given(seed=world_seeds, backend=backends)
@settings(max_examples=12, deadline=None)
def test_epoch_batching_invariance(seed, backend):
    epochs = []
    for offset in (0, 10, 20):
        _, snapshot, inputs = random_epoch(8, seed + offset)
        epochs.append(EpochInput(snapshot=snapshot, inputs=inputs))
    topology = random_epoch(8, seed)[0]

    batched = ValidationEngine(topology, backend=backend)
    batch_reports = batched.replay(epochs)
    stepped = ValidationEngine(topology, backend=backend)
    step_reports = [stepped.validate(e.snapshot, e.inputs) for e in epochs]

    assert len(batch_reports) == len(step_reports) == 3
    for batch_report, step_report in zip(batch_reports, step_reports):
        assert not compare_reports(batch_report, step_report)


@given(seed=world_seeds, backend=backends)
@settings(max_examples=12, deadline=None)
def test_cache_hit_path_equals_cache_miss_path(seed, backend):
    """A hit-served epoch equals its miss-served twin, even after the
    reference topology changed in between."""
    topology_a, snapshot_a, inputs_a = random_epoch(8, seed)
    topology_b, snapshot_b, inputs_b = random_epoch(10, seed + 50)

    engine = ValidationEngine(topology_a, backend=backend)
    miss_report = engine.validate(snapshot_a, inputs_a)  # miss
    engine.validate(snapshot_b, inputs_b, topology=topology_b)  # miss
    hit_report = engine.validate(snapshot_a, inputs_a)  # hit
    assert engine.stats.cache_hits == 1
    assert engine.stats.cache_misses == 2
    assert not compare_reports(miss_report, hit_report)

    # And the hit-served report equals a completely fresh engine's.
    fresh = ValidationEngine(topology_a, backend=backend)
    assert not compare_reports(fresh.validate(snapshot_a, inputs_a), hit_report)


# ----------------------------------------------------------------------
# Handed-over tally == walked tally
# ----------------------------------------------------------------------


def assert_tallies_hold(report, oracle_report, context):
    """Every input of a vector report against a fresh walk of its own
    results and against the python engine's verdict and provenance."""
    assert not compare_reports(oracle_report, report), context
    for name, check in report.checks.items():
        walked = [r for r in check.results if r.violated]
        handed = check.violations
        assert len(handed) == len(walked), (context, name)
        assert all(mine is theirs for mine, theirs in zip(handed, walked)), (context, name)
        skipped = sum(1 for r in check.results if r.status == InvariantStatus.SKIPPED)
        assert check.num_skipped == skipped, (context, name)
        assert check.num_evaluated == len(check.results) - skipped, (context, name)
        assert check.passed == (not walked), (context, name)
        assert report.verdicts[name] == oracle_report.verdicts[name], (context, name)
        assert report.provenance[name] == oracle_report.provenance[name], (context, name)


@pytest.mark.parametrize("scenario_id", [s.scenario_id for s in all_scenarios()])
def test_tallies_hold_over_catalog_timelines(scenario_id):
    scenario = next(s for s in all_scenarios() if s.scenario_id == scenario_id)
    world = scenario.build(seed=3)
    oracle = ValidationEngine(
        world.topology, config=world.hodor_config, backend="python"
    )
    engine = ValidationEngine(
        world.topology, config=world.hodor_config, backend="vector"
    )
    for epoch in range(3):
        outcome = world.run_epoch(timestamp=float(epoch))
        assert_tallies_hold(
            engine.validate(outcome.snapshot, outcome.inputs),
            oracle.validate(outcome.snapshot, outcome.inputs),
            f"{scenario_id} epoch {epoch}",
        )


# Faults a stream switches on and off.  Each takes and returns
# ``(snapshot, inputs)``; snapshots arrive as private copies.


def _believed_link_dropped(snapshot, inputs):
    believed = inputs.topology.copy()
    link = believed.links()[0]
    believed.remove_link(link.a, link.b)
    return snapshot, dataclasses.replace(inputs, topology=believed)


def _unknown_link_believed(snapshot, inputs):
    """A believed link hardening has never heard of: the topology
    family leaves the compiled link order for the whole serial check."""
    believed = inputs.topology.copy()
    names = believed.node_names()
    a, b = next(
        (a, b)
        for a in names
        for b in names
        if a < b and believed.link_between(a, b) is None
    )
    believed.add_link(Link(a, b, capacity=1.0))
    return snapshot, dataclasses.replace(inputs, topology=believed)


def _demand_doubled(snapshot, inputs):
    return snapshot, dataclasses.replace(inputs, demand=inputs.demand.scaled(2.0))


def _node_drain_flipped(snapshot, inputs):
    node = sorted(inputs.drains.nodes)[0]
    nodes = {**inputs.drains.nodes, node: not inputs.drains.nodes[node]}
    return snapshot, dataclasses.replace(
        inputs, drains=dataclasses.replace(inputs.drains, nodes=nodes)
    )


def _link_drain_flipped(snapshot, inputs):
    name = sorted(inputs.drains.links)[-1]
    links = {**inputs.drains.links, name: not inputs.drains.links[name]}
    return snapshot, dataclasses.replace(
        inputs, drains=dataclasses.replace(inputs.drains, links=links)
    )


def _drops_reported(snapshot, inputs):
    """A non-zero drop total: every demand entry's egress tolerance moves."""
    snapshot.drops[sorted(snapshot.drops)[0]] = 3.5
    return snapshot, inputs


def _external_counter_lost(snapshot, inputs):
    """Ingress and egress of one router unknown: its two demand
    invariants are skipped, and the check gains its trailing note."""
    node = sorted(node for node, peer in snapshot.counters if peer == EXTERNAL_PEER)[1]
    del snapshot.counters[(node, EXTERNAL_PEER)]
    return snapshot, inputs


def _status_down_on_a_busy_link(snapshot, inputs):
    """Both ends say down while the counters show traffic: suspect, so
    the link's one topology condition is skipped and brings a note."""
    node, peer = max(
        (key for key in snapshot.counters if key[1] != EXTERNAL_PEER),
        key=lambda key: (snapshot.counters[key].tx_rate or 0.0, key),
    )
    for key in ((node, peer), (peer, node)):
        snapshot.link_status[key].oper_up = False
    return snapshot, inputs


def _link_drain_bits_disagree(snapshot, inputs):
    """One end drained, the other not: the link's drain entity shrinks
    to its violated symmetry condition."""
    key = sorted(snapshot.link_drains)[0]
    snapshot.link_drains[key] = not snapshot.link_drains[key]
    return snapshot, inputs


FAULTS = (
    _believed_link_dropped,
    _unknown_link_believed,
    _demand_doubled,
    _node_drain_flipped,
    _link_drain_flipped,
    _drops_reported,
    _external_counter_lost,
    _status_down_on_a_busy_link,
    _link_drain_bits_disagree,
)


def _run_fault_stream(world_seed, toggles, churn):
    """Validate one epoch per toggle on both engines; each toggle flips
    one fault, which then stays as it is until toggled again.  Returns
    the vector reports."""
    topology, base_snapshot, base_inputs = random_epoch(10, world_seed)
    rng = random.Random(world_seed)
    active = set()
    reports = []
    oracle = ValidationEngine(topology, backend="python")
    engine = ValidationEngine(
        topology, backend="vector"
    )
    for epoch, toggle in enumerate(toggles):
        active ^= {toggle}
        base_snapshot = churn_snapshot(base_snapshot, churn, rng, float(epoch))
        snapshot, inputs = base_snapshot.copy(), base_inputs
        for index in sorted(active):
            snapshot, inputs = FAULTS[index](snapshot, inputs)
        report = engine.validate(snapshot, inputs)
        assert_tallies_hold(
            report,
            oracle.validate(snapshot, inputs),
            f"world {world_seed} epoch {epoch} active {sorted(active)}",
        )
        reports.append(report)
    return reports


@given(
    world_seed=world_seeds,
    toggles=st.lists(st.integers(0, len(FAULTS) - 1), min_size=3, max_size=8),
    churn=st.sampled_from([0.0, 0.2]),
)
@settings(max_examples=15, deadline=None)
def test_tallies_hold_under_fault_churn(world_seed, toggles, churn):
    _run_fault_stream(world_seed, toggles, churn)


def test_fault_stream_covers_what_it_claims():
    """Every fault on for two epochs and then off again, one at a time:
    the stream really does make violations come and go, entities change
    length, invariants skip, and the demand family go all-dirty."""
    toggles = [t for index in range(len(FAULTS)) for t in (index, index, index)]
    # on, off, on per fault leaves each on; a second sweep turns all off.
    reports = _run_fault_stream(1, toggles + list(range(len(FAULTS))), churn=0.0)

    def seen(predicate):
        return [bool(predicate(report)) for report in reports]

    for name in ("demand", "topology", "drain"):
        invalid = seen(lambda r, name=name: not r.verdicts[name].valid)
        assert any(invalid) and not all(invalid), name
    lengths = {name: {len(r.checks[name].results) for r in reports} for name in reports[0].checks}
    assert len(lengths["topology"]) > 1 and len(lengths["drain"]) > 1, lengths
    assert any(seen(lambda r: r.checks["demand"].num_skipped))
    assert any(seen(lambda r: r.checks["topology"].num_skipped))
    assert any(
        seen(lambda r: any("unknown-link" in x.invariant.name for x in r.checks["topology"].results))
    )
    assert any(seen(lambda r: any("in-network" in note for note in r.checks["demand"].notes)))
    assert not any(reports[-1].checks[name].violations for name in reports[-1].checks)

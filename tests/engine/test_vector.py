"""Differential tests for the array-compiled vector backend.

The vector backend's contract is total observational equivalence: for
every snapshot the per-entity reference units can validate, the
array-compiled path must produce a byte-identical
:class:`~repro.core.report.ValidationReport` *and* identical
:class:`~repro.obs.provenance.VerdictProvenance` records -- on priming
epochs, on deltas, and on identical-snapshot replays.  These tests pin
that contract over the whole outage catalog, randomized worlds, churn
streams, corruption that appears and disappears between epochs (so
repairs from the *previous* epoch must dirty this one),
controller-input changes that arrive with an unchanged snapshot, and
hypothesis-driven fuzz timelines.
"""

import copy
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collection import SignalCollector
from repro.core.drain_check import DrainChecker
from repro.core.flow_repair import ConservationSolveCache
from repro.core.hardening import Hardener
from repro.core.pipeline import Hodor
from repro.engine import ValidationEngine, compare_reports
from repro.engine.cache import TopologyCache
from repro.fleet.scenario import churn_snapshot
from repro.fuzz.generate import CaseGenerator
from repro.scenarios.catalog import all_scenarios

from tests.engine.conftest import random_epoch
from tests.engine.test_vector_events import base_rows, seal


def _provenance_dict(report):
    return {name: record.to_dict() for name, record in report.provenance.items()}


def assert_reports_identical(reference, candidate, context=""):
    diffs = compare_reports(reference, candidate)
    assert not diffs, f"{context}: {diffs[:5]}"
    assert _provenance_dict(reference) == _provenance_dict(candidate), (
        f"{context}: provenance diverged"
    )


def _scenario_ids():
    return [s.scenario_id for s in all_scenarios()]


#: ``(repair_solves, repair_reuses)`` the vector engine recorded over
#: three seed-7 epochs while it still solved through the dict front
#: end; every other scenario records ``(0, 0)``.
RECORDED_REPAIR_COUNTS = {
    "S01": (3, 6),
    "S02": (1, 2),
    "S03": (1, 2),
    "S17": (2, 4),
    "S20": (1, 2),
    "S22": (1, 2),
    "S24": (1, 2),
}


def dict_front_end_counts(world, snapshots):
    """``(solves, reuses)`` of the python path's dict front end driven
    with one shared solve cache over ``snapshots`` -- what the vector
    engine's counters must equal."""
    config = world.hodor_config
    cache = TopologyCache.from_topology(world.topology)
    collector = SignalCollector(config)
    hardener = Hardener(world.topology, config, cache=cache)
    solver_cache = ConservationSolveCache()
    for snapshot in snapshots:
        collected = collector.collect(snapshot)
        flows, _ = hardener.harden_flow_slice(collected, cache.directed_edges)
        ext_in, ext_out, drops, _ = hardener.harden_external_slice(collected, cache.nodes)
        if not config.enable_repair:
            continue
        cache.conservation.solve(
            {e: flows[e].value for e in cache.directed_edges},
            {n: ext_in[n].value for n in cache.nodes},
            {n: ext_out[n].value for n in cache.nodes},
            {n: drops[n].value for n in cache.nodes},
            cache=solver_cache,
        )
    return solver_cache.misses, solver_cache.hits


class TestCatalogParity:
    """Every catalog scenario, serial reference vs vector engine."""

    @pytest.mark.parametrize("scenario_id", _scenario_ids())
    def test_timeline_parity(self, scenario_id):
        scenario = next(
            s for s in all_scenarios() if s.scenario_id == scenario_id
        )
        world = scenario.build(seed=7)
        snapshots = []
        engine = ValidationEngine(
            world.topology, config=world.hodor_config, backend="vector"
        )
        for epoch in range(3):
            outcome = world.run_epoch(timestamp=float(epoch))
            report = engine.validate(outcome.snapshot, outcome.inputs)
            snapshots.append(outcome.snapshot)
            assert_reports_identical(
                outcome.report,
                report,
                context=f"{scenario_id} epoch {epoch}",
            )
        assert engine.stats.backend == "vector"
        assert engine.stats.epochs == 3
        # One solver behind both front ends: the array front end solves
        # and reuses exactly the components the dict front end does.
        counts = (engine.stats.repair_solves, engine.stats.repair_reuses)
        assert counts == dict_front_end_counts(world, snapshots)
        assert counts == RECORDED_REPAIR_COUNTS.get(scenario_id, (0, 0))


class TestRandomWorlds:
    """Random Waxman worlds, clean and corrupted."""

    @pytest.mark.parametrize(
        "size,seed,corrupted",
        [(6, 0, False), (8, 1, False), (12, 2, True), (16, 3, True)],
    )
    def test_single_epoch_parity(self, size, seed, corrupted):
        topology, snapshot, inputs = random_epoch(size, seed, corrupted=corrupted)
        serial = ValidationEngine(topology)
        reference = serial.validate(snapshot, inputs)
        engine = ValidationEngine(topology, backend="vector")
        report = engine.validate(snapshot, inputs)
        assert_reports_identical(
            reference, report, context=f"size={size} seed={seed}"
        )

    def test_identical_snapshot_replay(self):
        """Replaying the same snapshot object reproduces the serial
        report exactly."""
        topology, snapshot, inputs = random_epoch(10, 4)
        serial = ValidationEngine(topology)
        reference = serial.validate(snapshot, inputs)
        engine = ValidationEngine(topology, backend="vector")
        for replay in range(3):
            report = engine.validate(snapshot, inputs)
            assert_reports_identical(
                reference, report, context=f"replay {replay}"
            )

    def test_vector_records_reuse_on_replay(self):
        """Unlike the python backend, the vector backend is
        delta-aware: an epoch equal to the last one, in a distinct
        object, recomputes no harden or check unit and serves every one
        the priming epoch computed from its state."""
        topology, snapshot, inputs = random_epoch(10, 5)
        engine = ValidationEngine(topology, backend="vector")
        engine.validate(snapshot, inputs)
        stats = engine.stats

        def derived(counts):
            return {
                stage: count
                for stage, count in counts.items()
                if stage.startswith(("harden.", "check."))
            }

        primed = derived(stats.entities_recomputed)
        assert sum(primed.values()) > 0  # the priming epoch computes everything
        reused_priming = sum(derived(stats.entities_reused).values())
        engine.validate(copy.deepcopy(snapshot), inputs)
        assert derived(stats.entities_recomputed) == primed
        reused = sum(derived(stats.entities_reused).values()) - reused_priming
        assert reused >= sum(primed.values())

    def test_snapshot_mutated_in_place_is_revalidated(self):
        """A snapshot is a mutable bag of dicts: the same object handed
        back after an in-place edit is a new epoch, not a replay."""
        topology, snapshot, inputs = random_epoch(10, 4)
        snapshot = copy.deepcopy(snapshot)  # random_epoch caches its worlds
        oracle = ValidationEngine(topology, backend="python")
        engine = ValidationEngine(topology, backend="vector")
        assert_reports_identical(
            oracle.validate(snapshot, inputs), engine.validate(snapshot, inputs)
        )
        reading = next(iter(snapshot.counters.values()))
        reading.rx_rate = float(reading.rx_rate) * 50.0 + 100.0
        reading.tx_rate = float(reading.tx_rate) * 50.0 + 100.0
        reference = oracle.validate(snapshot, inputs)
        assert reference.hardening_findings  # the edit is visible to the oracle
        assert_reports_identical(
            reference, engine.validate(snapshot, inputs), context="mutated in place"
        )

    def test_model_compiles_once_per_topology(self):
        topology, snapshot, inputs = random_epoch(8, 6)
        engine = ValidationEngine(topology, backend="vector")
        for _ in range(4):
            engine.validate(snapshot, inputs)
        store = engine._model_store
        assert store.misses == 1
        assert len(store) == 1

    def test_unknown_backend_rejected(self):
        topology, _, _ = random_epoch(6, 0)
        with pytest.raises(ValueError, match="backend"):
            ValidationEngine(topology, backend="numpy")


class TestDeltaStreams:
    """Multi-epoch streams against a fresh serial ``Hodor`` per epoch:
    whatever the delta state carried over must not show in the report."""

    @pytest.mark.parametrize(
        "size,seed,churn",
        [(8, 20, 0.0), (12, 21, 0.05), (16, 22, 0.3), (12, 23, 1.0)],
    )
    def test_churned_world_matches_serial(self, size, seed, churn):
        """Randomized churn streams at several churn rates."""
        topology, snapshot, inputs = random_epoch(size, seed)
        rng = random.Random(seed)
        engine = ValidationEngine(topology, backend="vector")
        for epoch in range(5):
            serial = Hodor(topology).validate(snapshot, inputs)
            report = engine.validate(snapshot, inputs)
            assert_reports_identical(
                serial, report, context=f"churn={churn} epoch {epoch}"
            )
            snapshot = churn_snapshot(snapshot, churn, rng, float(epoch + 1))
        if churn == 0.0:
            # Nothing moved after priming, so nothing may recompute.
            assert engine.stats.reuse_rate() > 0.7

    @pytest.mark.parametrize("size,seed", [(8, 10), (12, 11)])
    def test_corruption_appearing_and_disappearing(self, size, seed):
        """Repairs from the previous epoch dirty this one when they vanish.

        Epoch order: clean -> corrupted (repair appears) -> clean (repair
        disappears; the repaired values revert) -> corrupted again.  Each
        transition must propagate through the drain hardening that
        consumed the repaired flows.
        """
        topology, clean_snap, inputs = random_epoch(size, seed)
        _, corrupt_snap, _ = random_epoch(size, seed, corrupted=True)
        engine = ValidationEngine(topology, backend="vector")
        for epoch, snap in enumerate(
            (clean_snap, corrupt_snap, clean_snap, corrupt_snap)
        ):
            serial = Hodor(topology).validate(snap, inputs)
            report = engine.validate(snap, inputs)
            assert_reports_identical(serial, report, context=f"epoch {epoch}")
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
    def test_input_change_with_identical_snapshot(self, mutate):
        """Controller-input changes must dirty the checks even with zero churn."""
        topology, snapshot, inputs = random_epoch(10, 40)
        changed_inputs = mutate(inputs)
        engine = ValidationEngine(topology, backend="vector")
        for epoch, epoch_inputs in enumerate((inputs, changed_inputs, inputs)):
            serial = Hodor(topology).validate(snapshot, epoch_inputs)
            report = engine.validate(snapshot, epoch_inputs)
            assert_reports_identical(serial, report, context=f"epoch {epoch}")

    def test_reset_reprimes_from_scratch(self):
        """After ``reset()`` the next epoch recomputes everything, correctly."""
        topology, snapshot, inputs = random_epoch(8, 60)
        serial = Hodor(topology).validate(snapshot, inputs)
        engine = ValidationEngine(topology, backend="vector")
        engine.validate(snapshot, inputs)
        primed = engine.stats.total_entities_recomputed
        for validator in engine._validators.values():
            validator.reset()
        report = engine.validate(snapshot, inputs)
        assert_reports_identical(serial, report, context="post-reset")
        assert engine.stats.total_entities_recomputed == 2 * primed


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


def _with_link_drained(drains):
    drained = dataclasses.replace(drains, links=dict(drains.links))
    name = sorted(drained.links)[0]
    drained.links[name] = not drained.links[name]
    return drained


def _check_families(validator):
    return (
        validator._demand_entries,
        validator._topo_entries,
        validator._dn_entries,
        validator._dl_entries,
    )


class TestReportsOwnTheirLists:
    """A report is built from the validator's per-entity entries and
    cached flattenings but never shares a list with them: whatever a
    caller does to a report it was handed, the next epoch's report is
    the oracle's."""

    @staticmethod
    def _vandalise(report):
        for check in report.checks.values():
            violations = check.violations
            violations.clear()
            violations.append("not a result")
            check.results.clear()
            check.results.append("not a result")
            check.notes.clear()
            check.notes.append("not a note")

    @staticmethod
    def _untouched(report):
        return (report.timestamp, dict(report.verdicts), _provenance_dict(report))

    def test_mutating_a_report_never_reaches_the_next_epoch(self):
        topology, snapshot, inputs = random_epoch(10, 40)
        # A believed link dropped: the topology input has violations, so
        # the handed-over violation gather is not vacuous.
        inputs = dataclasses.replace(inputs, topology=_without_first_link(inputs.topology))
        churned = churn_snapshot(snapshot, 0.3, random.Random(40), 1.0)
        events = seal(base_rows(snapshot), snapshot.timestamp)
        steps = [
            ("priming", lambda e: e.validate(snapshot, inputs)),
            ("changed snapshot", lambda e: e.validate(churned, inputs)),
            ("replay of the same object", lambda e: e.validate(churned, inputs)),
            ("events", lambda e: e.validate_events(events, snapshot.timestamp, inputs)),
            ("snapshot after events", lambda e: e.validate(snapshot, inputs)),
        ]
        oracle = ValidationEngine(topology, backend="python")
        engine = ValidationEngine(
            topology, backend="vector"
        )
        previous = None
        for label, step in steps:
            report = step(engine)
            assert_reports_identical(step(oracle), report, context=label)
            assert report.checks["topology"].violations, label
            if previous is not None:
                assert self._untouched(previous[0]) == previous[1], label
            previous = (report, self._untouched(report))
            self._vandalise(report)

    def test_violations_returns_a_list_of_its_own(self):
        topology, snapshot, inputs = random_epoch(10, 40)
        inputs = dataclasses.replace(inputs, topology=_without_first_link(inputs.topology))
        engine = ValidationEngine(topology, backend="vector")
        check = engine.validate(snapshot, inputs).checks["topology"]
        first = check.violations
        assert first and first is not check.violations
        first.append("not a result")
        assert check.violations == first[:-1]

    def test_reset_after_an_exception_mid_check_drops_tallies(self, monkeypatch):
        topology, snapshot, inputs = random_epoch(8, 61)
        changed = dataclasses.replace(inputs, drains=_with_link_drained(inputs.drains))
        engine = ValidationEngine(topology, backend="vector")
        engine.validate(snapshot, inputs)
        validator = next(iter(engine._validators.values()))
        assert all(family._flat is not None for family in _check_families(validator))

        def boom(*_args, **_kwargs):
            raise RuntimeError("mid-check")

        # Demand, topology and the drain nodes are done by the time
        # the one dirty link reaches its unit.
        monkeypatch.setattr(DrainChecker, "check_link_entity", boom)
        with pytest.raises(RuntimeError, match="mid-check"):
            engine.validate(snapshot, changed)
        monkeypatch.undo()

        assert not validator._primed
        for family in _check_families(validator):
            assert family._flat is None
            assert not family.num_violated.any() and not family.num_evaluated.any()
            assert all(entry is None for entry in family.results.tolist())
        assert_reports_identical(
            Hodor(topology).validate(snapshot, changed),
            engine.validate(snapshot, changed),
            context="post-exception",
        )

    def test_compare_reports_catches_a_tally_off_by_one(self, monkeypatch):
        """The planted mutant: one dirty entity's evaluated count is
        written one too high.  Verdict, provenance and fingerprint all
        carry the wrong count; the report's own results give it away."""
        topology, snapshot, inputs = random_epoch(8, 62)
        changed = dataclasses.replace(inputs, drains=_flipped_drains(inputs.drains))
        engine = ValidationEngine(topology, backend="vector")
        engine.validate(snapshot, inputs)
        validator = next(iter(engine._validators.values()))
        family = validator._dn_entries
        store = family.store

        def off_by_one(i, results, notes=()):
            store(i, results, notes)
            family.num_evaluated[i] += 1

        monkeypatch.setattr(family, "store", off_by_one)
        report = engine.validate(snapshot, changed)
        reference = Hodor(topology).validate(snapshot, changed)
        diffs = compare_reports(reference, report)
        assert any(d.startswith("b.checks['drain']: tally") for d in diffs), diffs
        assert any(d.startswith("b.verdicts['drain']") for d in diffs), diffs
        # The same report on the reference side is caught there too, and
        # two copies of the mutant do not vouch for each other.
        assert any(d.startswith("a.checks['drain']") for d in compare_reports(report, report))


class TestFuzzTimelineParity:
    """Hypothesis-driven fault timelines through the vector backend.

    The :class:`~repro.fuzz.generate.CaseGenerator` draws multi-epoch
    timelines over the whole fault palette (malformed telemetry, probe
    outages, aggregation bugs, drain intent faults, ...), which is
    exactly the input space where the vector backend's exceptional
    routes -- serial fallbacks for non-finite readings, out-of-universe
    links, malformed drains -- must stay finding-identical.
    """

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=12, deadline=None)
    def test_generated_timeline_parity(self, seed):
        spec = CaseGenerator().generate(seed)
        epochs = []
        references = []
        for index in range(spec.num_epochs):
            world = spec.world_for_epoch(index)
            outcome = world.run_epoch(timestamp=spec.timestamp_for(index))
            epochs.append((outcome.snapshot, outcome.inputs))
            references.append(outcome.report)
        engine = ValidationEngine(
            spec.topology, config=spec.hodor_config, backend="vector"
        )
        for index, (snapshot, inputs) in enumerate(epochs):
            report = engine.validate(snapshot, inputs)
            assert_reports_identical(
                references[index],
                report,
                context=f"seed={seed} epoch={index}",
            )

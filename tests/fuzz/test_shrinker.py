"""Mutation test: a planted mode-divergence bug is found and shrunk.

The PR's acceptance gate: plant a deliberate divergence between the
python engine path and the serial reference (via the oracle's hooks
seam), prove the tri-modal oracle catches it on a deliberately bloated
timeline, and prove the deterministic shrinker minimizes that timeline
to a reproducer of at most 3 epochs and at most 2 faults that still
fails -- and that the minimized reproducer round-trips through the
corpus byte-stably.
"""

import dataclasses

import pytest

from repro.faults.router_faults import (
    MalformedTelemetry,
    ProbeOutage,
    UnitChangeTelemetry,
)
from repro.fuzz import (
    CaseGenerator,
    EpochPlan,
    Reproducer,
    Shrinker,
    TimelineSpec,
    TriModalOracle,
    load_corpus,
    save_reproducer,
)
from repro.net.demand import gravity_demand
from repro.topologies.synthetic import ring_topology


def _flip_first_verdict_when_findings(index, report):
    """The planted bug: whenever hardening produced findings, the
    python engine path flips one verdict.  Divergence therefore needs a
    fault actually present -- benign epochs agree, so the shrinker
    cannot shrink past the faults that matter."""
    if not report.hardened.findings:
        return report
    if not report.verdicts:
        return report
    name = sorted(report.verdicts)[0]
    verdict = report.verdicts[name]
    verdicts = dict(report.verdicts)
    verdicts[name] = dataclasses.replace(verdict, valid=not verdict.valid)
    return dataclasses.replace(report, verdicts=verdicts)


@pytest.fixture(scope="module")
def bloated_spec():
    """Four epochs, several faults, only one of which (the unit-change
    corruption) reliably produces hardening findings every epoch."""
    topology = ring_topology(6)
    demand = gravity_demand(topology.node_names(), total=12.0, seed=5)
    trigger = UnitChangeTelemetry(interfaces=[("r0", "r1")], factor=1000.0)
    benign = ProbeOutage(nodes=["r3"])
    noisy = MalformedTelemetry(interfaces=[("r4", "r5")])
    return TimelineSpec(
        topology=topology,
        demand=demand,
        epochs=(
            EpochPlan(signal_faults=(benign,)),
            EpochPlan(signal_faults=(trigger, benign)),
            EpochPlan(signal_faults=(noisy, trigger)),
            EpochPlan(signal_faults=(benign, noisy)),
        ),
        seed=5,
    )


@pytest.fixture(scope="module")
def hooked_oracle():
    return TriModalOracle(hooks={"python": _flip_first_verdict_when_findings})


@pytest.fixture(scope="module")
def shrunk(bloated_spec, hooked_oracle):
    return Shrinker(hooked_oracle).shrink(bloated_spec)


class TestPlantedBugIsFound:
    def test_oracle_flags_the_divergence(self, bloated_spec, hooked_oracle):
        result = hooked_oracle.run(bloated_spec)
        assert result.failed
        assert result.kind == "divergence"
        assert {d.mode for d in result.divergences} == {"python"}

    def test_clean_oracle_passes_the_same_spec(self, bloated_spec):
        assert TriModalOracle().run(bloated_spec).passed


class TestShrinking:
    def test_minimized_within_acceptance_bounds(self, shrunk):
        assert shrunk.spec.num_epochs <= 3
        assert shrunk.total_faults <= 2

    def test_minimized_still_fails_with_planted_bug(self, shrunk, hooked_oracle):
        assert hooked_oracle.run(shrunk.spec).failed

    def test_minimized_passes_without_planted_bug(self, shrunk):
        assert TriModalOracle().run(shrunk.spec).passed

    def test_shrinking_is_deterministic(self, bloated_spec, hooked_oracle, shrunk):
        again = Shrinker(hooked_oracle).shrink(bloated_spec)
        assert again.spec.canonical_json() == shrunk.spec.canonical_json()

    def test_reductions_bounded_by_checks(self, shrunk):
        assert 0 < shrunk.reductions <= shrunk.checks


class TestCorpusRoundTrip:
    def test_minimized_reproducer_round_trips_byte_stably(self, shrunk, tmp_path):
        reproducer = Reproducer(
            reproducer_id="planted_0",
            spec=shrunk.spec,
            case_seed=5,
            kind="divergence",
            detail="planted python-mode flip",
        )
        save_reproducer(reproducer, tmp_path)
        loaded = load_corpus(tmp_path)
        assert len(loaded) == 1
        assert loaded[0].canonical_json() == reproducer.canonical_json()
        assert loaded[0].kind == "divergence"

    def test_runner_emits_reproducer_for_planted_bug(self, tmp_path):
        """End to end: a campaign against the hooked oracle finds the
        bug in generated cases too and lands a minimized reproducer."""
        from repro.fuzz import FuzzRunner

        oracle = TriModalOracle(hooks={"python": _flip_first_verdict_when_findings})
        runner = FuzzRunner(
            seed=3,
            budget_s=None,
            max_cases=6,
            generator=CaseGenerator(),
            oracle=oracle,
            corpus_dir=tmp_path,
        )
        report = runner.run()
        assert report.failures > 0
        corpus = load_corpus(tmp_path)
        assert corpus
        for entry in corpus:
            assert oracle.run(entry.spec).failed

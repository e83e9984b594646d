"""Verdict provenance: signal resolution, dispositions, redundancies."""

import pytest

from repro.core.invariants import CheckResult, Invariant, InvariantStatus, InvariantResult
from repro.core.signals import (
    Confidence,
    DrainVerdict,
    Finding,
    FindingSeverity,
    HardenedDrain,
    HardenedLinkStatus,
    HardenedState,
    HardenedValue,
    LinkVerdict,
)
from repro.obs import build_provenance


def violated(name, description="lhs == rhs", error=0.5):
    invariant = Invariant(name=name, description=description, lhs=1.0, rhs=2.0, tolerance=0.01)
    return InvariantResult(invariant, InvariantStatus.VIOLATED, error=error)


def check_with(name, *results):
    check = CheckResult(input_name=name)
    check.results.extend(results)
    return check


class TestSignalResolution:
    def test_row_sum_resolves_hardened_ext_in(self):
        hardened = HardenedState()
        hardened.ext_in["atla"] = HardenedValue(
            3.0, Confidence.CORROBORATED, source="avg of both ends"
        )
        record = build_provenance(
            check_with("demand", violated("demand/row-sum/atla")), hardened
        )
        assert not record.valid
        (fired,) = record.fired
        assert fired.kind == "demand/row-sum"
        assert fired.entity == "atla"
        (signal,) = fired.signals
        assert signal.signal == "ext_in/atla"
        assert signal.disposition == "confirmed"
        assert signal.confidence == "corroborated"
        assert signal.source == "avg of both ends"

    def test_col_sum_resolves_ext_out_and_repaired_disposition(self):
        hardened = HardenedState()
        hardened.ext_out["chic"] = HardenedValue(
            1.0, Confidence.REPAIRED, source="conservation solve"
        )
        record = build_provenance(
            check_with("demand", violated("demand/col-sum/chic")), hardened
        )
        assert record.fired[0].signals[0].disposition == "repaired"

    def test_topology_invariant_resolves_link_with_evidence_heuristic(self):
        hardened = HardenedState()
        hardened.links["atla~wash"] = HardenedLinkStatus(
            verdict=LinkVerdict.UP, evidence=("counters", "probes")
        )
        hardened.links["chin~nycm"] = HardenedLinkStatus(
            verdict=LinkVerdict.DOWN, evidence=("oper-status",)
        )
        record = build_provenance(
            check_with(
                "topology",
                violated("topology/live-iff-up/atla~wash"),
                violated("topology/live-iff-up/chin~nycm"),
            ),
            hardened,
        )
        first, second = record.fired
        assert first.signals[0].disposition == "confirmed"  # two evidence notes
        assert first.signals[0].confidence == "up"
        assert second.signals[0].disposition == "raw"  # single vantage point

    def test_drain_invariants_resolve_node_and_link_drains(self):
        hardened = HardenedState()
        hardened.node_drains["atla"] = HardenedDrain(
            verdict=DrainVerdict.DRAINED, evidence=("intent", "flows")
        )
        hardened.link_drains["atla~wash"] = HardenedDrain(
            verdict=DrainVerdict.SERVING, evidence=("flows",)
        )
        record = build_provenance(
            check_with(
                "drain",
                violated("drain/node-consistent/atla"),
                violated("drain/link-symmetric/atla~wash"),
            ),
            hardened,
        )
        node, link = record.fired
        assert node.signals[0].signal == "node_drains/atla"
        assert node.signals[0].disposition == "confirmed"
        assert link.signals[0].signal == "link_drains/atla~wash"
        assert link.signals[0].disposition == "raw"

    def test_missing_hardened_entry_is_unknown(self):
        record = build_provenance(
            check_with("demand", violated("demand/row-sum/ghost")), HardenedState()
        )
        (signal,) = record.fired[0].signals
        assert signal.disposition == "unknown"
        assert signal.source == "absent from hardened state"


class TestRedundanciesAndShape:
    def test_redundancies_cover_only_fired_entities(self):
        hardened = HardenedState()
        hardened.findings.append(
            Finding("R1_MISMATCH", FindingSeverity.WARNING, "atla-chic", "d", redundancy="R1")
        )
        hardened.findings.append(
            Finding("R2_REPAIR", FindingSeverity.INFO, "kscy", "d", redundancy="R2")
        )
        record = build_provenance(
            check_with("demand", violated("demand/row-sum/atla")), hardened
        )
        # The link-level finding matches node atla; kscy does not fire.
        assert record.redundancies == ("R1",)

    def test_valid_input_has_empty_provenance_lists(self):
        record = build_provenance(check_with("topology"), HardenedState())
        assert record.valid
        assert record.fired == ()
        assert record.redundancies == ()
        assert record.describe() == "topology: valid"

    def test_to_dict_is_json_shaped(self):
        import json

        hardened = HardenedState()
        hardened.ext_in["atla"] = HardenedValue(3.0, Confidence.REPORTED, source="gnmi")
        record = build_provenance(
            check_with("demand", violated("demand/row-sum/atla", error=0.25)), hardened
        )
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["input"] == "demand"
        assert payload["valid"] is False
        assert payload["num_violations"] == 1
        assert payload["fired"][0]["name"] == "demand/row-sum/atla"
        assert payload["fired"][0]["error"] == pytest.approx(0.25)
        assert payload["fired"][0]["signals"][0]["disposition"] == "raw"

    def test_describe_names_invariant_and_signal(self):
        hardened = HardenedState()
        hardened.ext_in["atla"] = HardenedValue(3.0, Confidence.REPORTED, source="gnmi")
        record = build_provenance(
            check_with("demand", violated("demand/row-sum/atla", error=0.25)), hardened
        )
        text = record.describe()
        assert "demand/row-sum/atla" in text
        assert "err=25.00%" in text
        assert "ext_in/atla (raw@reported)" in text


class TestPipelineIntegration:
    def test_reports_carry_provenance_for_every_input(self):
        from repro.scenarios.catalog import scenario_by_id

        world = scenario_by_id("S01").build(seed=1)
        outcome = world.run_epoch(timestamp=0.0)
        from repro.core.pipeline import Hodor

        report = Hodor(world.topology, config=world.hodor_config).validate(
            outcome.snapshot, outcome.inputs
        )
        assert set(report.provenance) == set(report.verdicts)
        for name, verdict in report.verdicts.items():
            record = report.provenance[name]
            assert record.valid == verdict.valid
            assert record.num_violations == verdict.num_violations
            if not record.valid:
                assert record.fired  # every flagged verdict names invariants
                for fired in record.fired:
                    assert fired.name
                    assert fired.signals  # ... and the signals that fed them


def test_build_provenance_reads_the_checks_own_tally():
    """No ``violations=`` to keep in step with the check by hand: the
    record's counts are the check's tally, handed over or walked."""
    import inspect

    assert list(inspect.signature(build_provenance).parameters) == ["check", "hardened"]
    fired, passed = violated("topology/live-iff-up/a~b"), InvariantResult(
        Invariant("topology/live-iff-up/a~c", "ok", 1.0, 1.0, 0.0), InvariantStatus.PASSED, 0.0
    )
    check = check_with("topology", fired, passed)
    check.hand_over([fired], num_evaluated=2)
    record = build_provenance(check, HardenedState())
    assert (record.num_violations, record.num_evaluated) == (1, 2)
    assert [invariant.name for invariant in record.fired] == [fired.invariant.name]

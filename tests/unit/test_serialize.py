"""Unit tests for JSON serialization of validation artifacts."""

import json

import pytest

from repro.control.demand_service import records_from_matrix
from repro.control.infra import ControlPlane
from repro.control.metrics import assess_health
from repro.core import (
    CheckResult,
    Hodor,
    check_result_to_dict,
    finding_to_dict,
    hardened_state_to_dict,
    health_report_to_dict,
    validation_report_to_dict,
)
from repro.net.demand import zero_entries
from repro.net.simulation import NetworkSimulator


@pytest.fixture
def report(abilene_topo, clean_snapshot, abilene_demand):
    plane = ControlPlane(abilene_topo)
    inputs = plane.compute_inputs(clean_snapshot, records_from_matrix(abilene_demand, seed=1))
    return Hodor(abilene_topo).validate(clean_snapshot, inputs)


@pytest.fixture
def failing_report(abilene_topo, clean_snapshot, abilene_demand):
    bad = zero_entries(abilene_demand, 3, seed=4)
    return Hodor(abilene_topo).validate_demand(clean_snapshot, bad)


class TestRoundTrip:
    def test_clean_report_json_safe(self, report):
        payload = validation_report_to_dict(report)
        encoded = json.dumps(payload)  # must not raise
        decoded = json.loads(encoded)
        assert decoded["all_valid"] is True
        assert decoded["invalid_inputs"] == []
        assert set(decoded["verdicts"]) == {"demand", "topology", "drain"}

    def test_failing_report_carries_violations(self, failing_report):
        payload = validation_report_to_dict(failing_report)
        assert payload["all_valid"] is False
        assert "demand" in payload["invalid_inputs"]
        violations = payload["checks"]["demand"]["violations"]
        assert violations
        first = violations[0]
        assert first["status"] == "violated"
        assert first["name"].startswith("demand/")
        assert isinstance(first["error"], float)

    def test_hardening_payload(self, abilene_topo, clean_snapshot):
        snapshot = clean_snapshot.copy()
        snapshot.counters[("atla", "hstn")].tx_rate = 999.0
        hardened = Hodor(abilene_topo).harden(snapshot)
        payload = hardened_state_to_dict(hardened)
        json.dumps(payload)
        codes = {f["code"] for f in payload["findings"]}
        assert "R1_COUNTER_MISMATCH" in codes
        assert payload["num_repaired_edges"] == 1
        assert payload["links"]["atla~hstn"]["usable"] is True

    def test_values_opt_in(self, abilene_topo, clean_snapshot):
        hardened = Hodor(abilene_topo).harden(clean_snapshot)
        thin = hardened_state_to_dict(hardened)
        fat = hardened_state_to_dict(hardened, include_values=True)
        assert "edge_flows" not in thin
        assert "atla->hstn" in fat["edge_flows"]
        assert fat["edge_flows"]["atla->hstn"]["confidence"] == "corroborated"

    def test_finding_dict_fields(self, failing_report):
        for finding in failing_report.hardening_findings:
            payload = finding_to_dict(finding)
            assert set(payload) == {"code", "severity", "subject", "detail", "redundancy"}

    def test_health_report(self, abilene_topo, abilene_demand):
        truth = NetworkSimulator(abilene_topo, abilene_demand).run()
        payload = health_report_to_dict(assess_health(truth, abilene_demand))
        json.dumps(payload)
        assert payload["severity"] == "ok"
        assert 0 <= payload["mlu"] <= 1.5


class TestOneWalkPerCheck:
    """Serialising or rendering a check reads its tally; nothing walks
    the results a second time."""

    @pytest.fixture
    def walks(self, monkeypatch):
        from repro.core.invariants import CheckTally

        calls = []
        of = CheckTally.of

        def counted(results):
            calls.append(len(results))
            return of(results)

        monkeypatch.setattr(CheckTally, "of", staticmethod(counted))
        return calls

    @staticmethod
    def _unwalked(check):
        return CheckResult(check.input_name, list(check.results), list(check.notes))

    def test_check_result_to_dict(self, failing_report, walks):
        check = self._unwalked(failing_report.checks["demand"])
        brief = check_result_to_dict(check)
        full = check_result_to_dict(check, include_passed=True)
        assert walks == [len(check.results)]
        assert brief["passed"] is False and brief["results"] is None
        assert brief["violations"] == full["violations"] != []
        assert brief["num_evaluated"] + brief["num_skipped"] == len(full["results"])

    def test_render(self, failing_report, walks):
        failing_report.checks["demand"] = self._unwalked(failing_report.checks["demand"])
        assert "FAIL" in failing_report.render()
        assert walks == [len(failing_report.checks["demand"].results)]

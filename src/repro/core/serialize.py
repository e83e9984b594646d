"""JSON-friendly serialization of validation artifacts.

Production validators feed alerting and management tooling (paper
Section 3.2: "integrated ... into alerting and management tools"), so
every report object serializes to plain dicts of JSON-safe scalars.
The functions here are lossless for everything tooling needs --
verdicts, violations, findings, hardened-value provenance -- while
omitting bulky internals (the full hardened flow vector is opt-in).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.control.metrics import HealthReport
from repro.core.invariants import CheckResult, InvariantResult
from repro.core.report import ValidationReport
from repro.core.signals import Finding, HardenedState, HardenedValue

__all__ = [
    "finding_to_dict",
    "invariant_result_to_dict",
    "check_result_to_dict",
    "hardened_state_to_dict",
    "validation_report_to_dict",
    "health_report_to_dict",
]


def finding_to_dict(finding: Finding) -> Dict[str, Any]:
    return {
        "code": finding.code,
        "severity": finding.severity.value,
        "subject": finding.subject,
        "detail": finding.detail,
        "redundancy": finding.redundancy,
    }


def invariant_result_to_dict(result: InvariantResult) -> Dict[str, Any]:
    return {
        "name": result.invariant.name,
        "description": result.invariant.description,
        "status": result.status.value,
        "error": result.error,
        "tolerance": result.invariant.tolerance,
        "lhs": result.invariant.lhs,
        "rhs": result.invariant.rhs,
    }


def check_result_to_dict(check: CheckResult, include_passed: bool = False) -> Dict[str, Any]:
    """One input's check outcome.

    Args:
        check: The check to serialize.
        include_passed: Also include passed/skipped invariants (the
            default keeps payloads alert-sized: violations only).
    """
    tally = check.tally
    return {
        "input": check.input_name,
        "passed": not tally.violations,
        "num_evaluated": tally.num_evaluated,
        "num_skipped": tally.num_skipped,
        "violations": [invariant_result_to_dict(r) for r in tally.violations],
        "results": (
            [invariant_result_to_dict(r) for r in check.results] if include_passed else None
        ),
        "notes": list(check.notes),
    }


def _hardened_value_to_dict(value: HardenedValue) -> Dict[str, Any]:
    return {
        "value": value.value,
        "confidence": value.confidence.value,
        "source": value.source,
    }


def hardened_state_to_dict(state: HardenedState, include_values: bool = False) -> Dict[str, Any]:
    """Hardening outcome: findings always, the flow vector opt-in."""
    payload: Dict[str, Any] = {
        "findings": [finding_to_dict(f) for f in state.findings],
        "num_unknown_edges": len(state.unknown_edges()),
        "num_repaired_edges": len(state.repaired_edges()),
        "links": {
            name: {
                "verdict": status.verdict.value,
                "forwarding": status.forwarding,
                "usable": status.usable,
                "evidence": list(status.evidence),
            }
            for name, status in state.links.items()
        },
    }
    if include_values:
        payload["edge_flows"] = {
            f"{src}->{dst}": _hardened_value_to_dict(value)
            for (src, dst), value in state.edge_flows.items()
        }
        payload["ext_in"] = {
            node: _hardened_value_to_dict(value) for node, value in state.ext_in.items()
        }
        payload["ext_out"] = {
            node: _hardened_value_to_dict(value) for node, value in state.ext_out.items()
        }
    return payload


def validation_report_to_dict(
    report: ValidationReport, include_values: bool = False
) -> Dict[str, Any]:
    """The full alert payload for one validation pass."""
    return {
        "timestamp": report.timestamp,
        "all_valid": report.all_valid,
        "invalid_inputs": report.invalid_inputs(),
        "verdicts": {
            name: {
                "valid": verdict.valid,
                "violations": verdict.num_violations,
                "evaluated": verdict.num_evaluated,
            }
            for name, verdict in report.verdicts.items()
        },
        "checks": {
            name: check_result_to_dict(check) for name, check in report.checks.items()
        },
        "hardening": hardened_state_to_dict(report.hardened, include_values=include_values),
    }


def health_report_to_dict(health: HealthReport) -> Dict[str, Any]:
    return {
        "severity": health.severity.value,
        "mlu": health.mlu,
        "loss_rate": health.loss_rate,
        "delivered_fraction": health.delivered_fraction,
        "congested_links": [f"{u}->{v}" for u, v in health.congested_links],
    }

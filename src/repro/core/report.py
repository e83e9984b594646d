"""Validation reports: what Hodor tells the operator.

A :class:`ValidationReport` bundles the outcome of one validation pass:
the hardening findings, the per-input check results, and a verdict per
input.  Reports render to a compact human-readable text block -- the
kind of artifact that would feed the operator's alerting pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.core.invariants import CheckResult, CheckTally
from repro.core.signals import Finding, FindingSeverity, HardenedState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.provenance import VerdictProvenance

__all__ = ["InputVerdict", "ValidationReport"]


@dataclass(frozen=True)
class InputVerdict:
    """Verdict for one controller input.

    Attributes:
        input_name: ``"demand"``, ``"topology"``, or ``"drain"``.
        valid: True when no invariant for this input was violated.
        num_violations: Count of violated invariants.
        num_evaluated: Count of evaluated (non-skipped) invariants.
    """

    input_name: str
    valid: bool
    num_violations: int
    num_evaluated: int

    @classmethod
    def from_tally(cls, input_name: str, tally: CheckTally) -> "InputVerdict":
        return cls(
            input_name=input_name,
            valid=not tally.violations,
            num_violations=len(tally.violations),
            num_evaluated=tally.num_evaluated,
        )


@dataclass
class ValidationReport:
    """Everything one Hodor validation pass produced.

    Attributes:
        timestamp: Snapshot epoch validated.
        hardened: The hardened network state used for checking.
        checks: Per-input dynamic check results.
        verdicts: Per-input verdicts derived from the checks.
        provenance: Per-input
            :class:`~repro.obs.provenance.VerdictProvenance` records --
            which invariants fired and which hardened signals fed them.
            Derived deterministically from ``checks`` + ``hardened``,
            so report equality is unaffected.
    """

    timestamp: float
    hardened: HardenedState
    checks: Dict[str, CheckResult] = field(default_factory=dict)
    verdicts: Dict[str, InputVerdict] = field(default_factory=dict)
    provenance: Dict[str, "VerdictProvenance"] = field(default_factory=dict)

    @property
    def all_valid(self) -> bool:
        return all(verdict.valid for verdict in self.verdicts.values())

    def invalid_inputs(self) -> List[str]:
        return sorted(name for name, v in self.verdicts.items() if not v.valid)

    @property
    def hardening_findings(self) -> List[Finding]:
        return self.hardened.findings

    def critical_findings(self) -> List[Finding]:
        return self.hardened.findings_with_severity(FindingSeverity.CRITICAL)

    def detected_anything(self) -> bool:
        """Did this pass surface any problem at all?

        True when any input failed validation, or hardening produced a
        warning/critical finding.  This is the metric the outage-replay
        study scores: "would Hodor have flagged this epoch?"
        """
        if not self.all_valid:
            return True
        return any(
            finding.severity in (FindingSeverity.WARNING, FindingSeverity.CRITICAL)
            for finding in self.hardened.findings
        )

    def render(self) -> str:
        """A compact multi-line text report."""
        lines = [f"Hodor validation @ t={self.timestamp:g}"]
        for name in sorted(self.verdicts):
            verdict = self.verdicts[name]
            mark = "OK " if verdict.valid else "FAIL"
            lines.append(
                f"  [{mark}] {name}: {verdict.num_violations} violations / "
                f"{verdict.num_evaluated} invariants"
            )
            check = self.checks.get(name)
            if check:
                violations = check.tally.violations
                for violation in violations[:10]:
                    lines.append(f"         - {violation.describe()}")
                if len(violations) > 10:
                    lines.append(f"         ... {len(violations) - 10} more")
        noteworthy = [
            f for f in self.hardened.findings if f.severity != FindingSeverity.INFO
        ]
        if noteworthy:
            lines.append(f"  hardening findings ({len(noteworthy)}):")
            for finding in noteworthy[:15]:
                lines.append(
                    f"    - [{finding.severity.value}] {finding.code} {finding.subject}: "
                    f"{finding.detail}"
                )
            if len(noteworthy) > 15:
                lines.append(f"    ... {len(noteworthy) - 15} more")
        return "\n".join(lines)

"""Hodor: the paper's three-step input-validation approach.

Public surface:

- :class:`Hodor` -- the pipeline (collect, harden, dynamically check).
- :class:`HodorConfig` / :class:`RiskProfile` -- tunables.
- Policies (:class:`AlertOnlyPolicy`, :class:`RejectAndFallbackPolicy`).
- The step outputs (:class:`CollectedState`, :class:`HardenedState`,
  :class:`ValidationReport`) and their supporting types.
- Lower-level building blocks for studies: the hardener, the three
  checkers, the flow-conservation solver, and the link-status truth
  table.
"""

from repro.core.calibration import CalibrationResult, calibrate_tau_h
from repro.core.collection import SignalCollector
from repro.core.config import HodorConfig, RiskProfile
from repro.core.demand_check import DemandChecker
from repro.core.drain_check import DrainChecker
from repro.core.drain_reasons import (
    DrainReason,
    parse_reason,
    reason_allows_traffic,
    reason_requires_faulty_link,
)
from repro.core.flow_repair import (
    RepairResult,
    drop_var,
    edge_var,
    ext_in_var,
    ext_out_var,
    solve_flow_conservation,
)
from repro.core.hardening import Hardener
from repro.core.invariants import (
    CheckResult,
    CheckTally,
    Invariant,
    InvariantResult,
    InvariantStatus,
    relative_error,
)
from repro.core.link_status import LinkEvidence, combine_link_evidence
from repro.core.pipeline import Hodor
from repro.core.policy import (
    AlertOnlyPolicy,
    Policy,
    PolicyDecision,
    RejectAndFallbackPolicy,
)
from repro.core.report import InputVerdict, ValidationReport
from repro.core.serialize import (
    check_result_to_dict,
    finding_to_dict,
    hardened_state_to_dict,
    health_report_to_dict,
    invariant_result_to_dict,
    validation_report_to_dict,
)
from repro.core.signals import (
    CollectedCounter,
    CollectedState,
    CollectedStatus,
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
from repro.core.topology_check import TopologyChecker

__all__ = [
    "AlertOnlyPolicy",
    "CalibrationResult",
    "CheckResult",
    "CheckTally",
    "CollectedCounter",
    "CollectedState",
    "CollectedStatus",
    "Confidence",
    "DemandChecker",
    "DrainChecker",
    "DrainReason",
    "DrainVerdict",
    "Finding",
    "FindingSeverity",
    "HardenedDrain",
    "HardenedLinkStatus",
    "HardenedState",
    "HardenedValue",
    "Hardener",
    "Hodor",
    "HodorConfig",
    "InputVerdict",
    "Invariant",
    "InvariantResult",
    "InvariantStatus",
    "LinkEvidence",
    "LinkVerdict",
    "Policy",
    "PolicyDecision",
    "RejectAndFallbackPolicy",
    "RepairResult",
    "RiskProfile",
    "SignalCollector",
    "TopologyChecker",
    "ValidationReport",
    "calibrate_tau_h",
    "check_result_to_dict",
    "combine_link_evidence",
    "drop_var",
    "edge_var",
    "ext_in_var",
    "ext_out_var",
    "finding_to_dict",
    "hardened_state_to_dict",
    "health_report_to_dict",
    "invariant_result_to_dict",
    "parse_reason",
    "reason_allows_traffic",
    "reason_requires_faulty_link",
    "relative_error",
    "solve_flow_conservation",
    "validation_report_to_dict",
]

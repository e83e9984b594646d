"""Experiment harness: one study per paper table/figure/claim.

See DESIGN.md's experiment index: E1 lives in the Figure 3 bench and
tests (the worked example needs no sweep); E2-E8 and E16 are the studies
here.
"""

from repro.experiments.drain_study import DRAIN_CASES, DrainRow, DrainStudy
from repro.experiments.fuzz_study import (
    FuzzCensusRow,
    FuzzCoverageStudy,
    MutationRow,
    flip_one_verdict,
)
from repro.experiments.hardening_study import CorrelatedRow, HardeningRow, HardeningStudy
from repro.experiments.harness import ReportConfig, run_full_report
from repro.experiments.outage_study import OutageStudy, ScenarioOutcome, taxonomy_census
from repro.experiments.perturbation import PerturbationRow, PerturbationStudy
from repro.experiments.reporting import format_percent, format_rate, format_table
from repro.experiments.threshold_study import DetectabilityRow, ThresholdRow, ThresholdStudy
from repro.experiments.topology_study import FAULT_MODES, TopologyRow, TopologyStudy

__all__ = [
    "CorrelatedRow",
    "DRAIN_CASES",
    "DetectabilityRow",
    "DrainRow",
    "DrainStudy",
    "FAULT_MODES",
    "FuzzCensusRow",
    "FuzzCoverageStudy",
    "MutationRow",
    "flip_one_verdict",
    "HardeningRow",
    "HardeningStudy",
    "OutageStudy",
    "PerturbationRow",
    "PerturbationStudy",
    "ReportConfig",
    "ScenarioOutcome",
    "ThresholdRow",
    "ThresholdStudy",
    "TopologyRow",
    "TopologyStudy",
    "format_percent",
    "format_rate",
    "format_table",
    "run_full_report",
    "taxonomy_census",
]

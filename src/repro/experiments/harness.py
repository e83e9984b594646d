"""Full-report harness: run every study, write one results document.

``run_full_report()`` executes E2-E8 at configurable effort and
renders a single markdown document mirroring EXPERIMENTS.md's
structure with freshly measured numbers.  Exposed on the CLI as
``python -m repro report``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.drain_study import DRAIN_CASES, DrainStudy
from repro.experiments.hardening_study import HardeningStudy
from repro.experiments.outage_study import OutageStudy, taxonomy_census
from repro.experiments.perturbation import PerturbationStudy
from repro.experiments.reporting import format_percent, format_table
from repro.experiments.threshold_study import ThresholdStudy
from repro.experiments.topology_study import FAULT_MODES, TopologyStudy

__all__ = ["ReportConfig", "run_full_report"]


@dataclass(frozen=True)
class ReportConfig:
    """Effort knobs for the full report.

    Attributes:
        perturbation_trials: Trials per zeroed-entry count (E2).
        hardening_trials: Trials per corruption count (E5).
        drain_trials: Trials per drain case (E7).
        threshold_trials: Snapshots per (tau_h, jitter) cell (E4).
        seed: Base seed for everything.
    """

    perturbation_trials: int = 240
    hardening_trials: int = 10
    drain_trials: int = 6
    threshold_trials: int = 3
    seed: int = 0

    @classmethod
    def quick(cls) -> "ReportConfig":
        """A fast profile for smoke runs (~15 s)."""
        return cls(
            perturbation_trials=60,
            hardening_trials=4,
            drain_trials=2,
            threshold_trials=1,
        )


def run_full_report(config: Optional[ReportConfig] = None) -> str:
    """Run every study and return the markdown report."""
    config = config or ReportConfig()
    started = time.time()
    sections: List[str] = ["# Hodor reproduction — full measured report", ""]

    def section(title: str, body: str) -> None:
        sections.append(f"## {title}\n")
        sections.append(body)
        sections.append("")

    # E2: perturbation study.
    perturbation = PerturbationStudy(matrices=8, seed=config.seed)
    rows = perturbation.run(zero_counts=(1, 2, 3, 4, 5, 6), trials=config.perturbation_trials)
    section(
        "E2 — demand perturbation detection (Section 4.1)",
        format_table(
            ["zeroed entries", "detection rate"],
            [[r.zeroed, format_percent(r.detection_rate)] for r in rows],
        )
        + f"\n\nfalse positives on clean matrices: "
        f"{format_percent(perturbation.false_positive_rate())}",
    )

    # E3 + E8: outage replay and taxonomy.
    outage = OutageStudy(history_epochs=8, seed=config.seed + 1)
    outcomes = outage.run()
    summary = OutageStudy.summarize(outcomes)
    census = taxonomy_census()
    section(
        "E3 — outage catalog vs three validators (Sections 1/6)",
        format_table(
            ["validator", "detection", "false positives"],
            [
                ["hodor", format_percent(summary["hodor_detection_rate"], 0),
                 format_percent(summary["hodor_false_positive_rate"], 0)],
                ["static checks", format_percent(summary["static_detection_rate"], 0),
                 format_percent(summary["static_false_positive_rate"], 0)],
                ["anomaly detection", format_percent(summary["anomaly_detection_rate"], 0),
                 format_percent(summary["anomaly_false_positive_rate"], 0)],
            ],
        ),
    )
    section(
        "E8 — root-cause taxonomy (Section 2)",
        format_table(
            ["category", "scenarios"], sorted(census.items(), key=lambda kv: -kv[1])
        ),
    )

    # E4: thresholds.
    threshold = ThresholdStudy(seed=config.seed)
    fp_rows = threshold.false_positive_sweep(trials=config.threshold_trials)
    taus = sorted({r.tau_h for r in fp_rows})
    jitters = sorted({r.jitter for r in fp_rows})
    cell = {(r.tau_h, r.jitter): r.false_positive_rate for r in fp_rows}
    section(
        "E4 — hardening threshold sensitivity (footnote 2)",
        format_table(
            ["tau_h \\ jitter"] + [f"{j:g}" for j in jitters],
            [[f"{t:g}"] + [format_percent(cell[(t, j)]) for j in jitters] for t in taus],
        ),
    )

    # E5: hardening efficacy.
    hardening = HardeningStudy(seed=config.seed)
    h_rows = hardening.corruption_sweep(trials=config.hardening_trials)
    correlated = hardening.correlated_vendor_bug()
    section(
        "E5 — hardening efficacy (Section 3.2 open question)",
        format_table(
            ["corrupted", "recall", "repair rate", "left unknown"],
            [
                [r.corrupted, format_percent(r.recall), format_percent(r.repair_rate),
                 format_percent(r.unknown_rate)]
                for r in h_rows
            ],
        )
        + (
            f"\n\ncorrelated vendor bug: {correlated.blind_flagged}/"
            f"{correlated.blind_directions} blind directions flagged, "
            f"{correlated.visible_flagged}/{correlated.visible_directions} visible flagged"
        ),
    )

    # E6: truth table.
    topology_study = TopologyStudy(seed=config.seed)
    t_rows = topology_study.run(modes=FAULT_MODES, profiles=("balanced",))
    section(
        "E6 — link-status truth table, balanced profile (Section 4.2)",
        format_table(
            ["failure mode", "accuracy", "suspect"],
            [[r.mode, format_percent(r.accuracy, 0), r.suspect] for r in t_rows],
        ),
    )

    # E7 (+ reasons extension).
    drains = DrainStudy(seed=config.seed)
    d_rows = drains.run(cases=DRAIN_CASES, trials=config.drain_trials)
    d_rows += drains.run_with_reasons(trials=config.drain_trials)
    section(
        "E7 — drain validation incl. reasons extension (Section 4.3)",
        format_table(
            ["case", "flagged", "should flag"],
            [[r.case, format_percent(r.rate, 0), "yes" if r.should_flag else "no"]
             for r in d_rows],
        ),
    )

    sections.append(f"_generated in {time.time() - started:.1f}s_")
    return "\n".join(sections)

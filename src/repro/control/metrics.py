"""Network-health metrics: how bad did an epoch actually get?

Experiments evaluate a controller allocation on the *real* network (via
:meth:`repro.net.simulation.NetworkSimulator.evaluate`) and summarise
the outcome here.  Severity bands follow how the paper talks about
outages: local congestion, severe congestion, and major outages with
packet loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Tuple

from repro.net.demand import DemandMatrix
from repro.net.simulation import GroundTruth

__all__ = ["Severity", "HealthReport", "assess_health"]


class Severity(Enum):
    """How healthy one epoch was, worst condition wins."""

    OK = "ok"
    DEGRADED = "degraded"  # high utilization, no meaningful loss
    CONGESTED = "congested"  # saturated links / measurable loss
    OUTAGE = "outage"  # major loss or undelivered demand

    def at_least(self, other: "Severity") -> bool:
        order = [Severity.OK, Severity.DEGRADED, Severity.CONGESTED, Severity.OUTAGE]
        return order.index(self) >= order.index(other)


#: Severity thresholds (fractions).  The degraded bound sits just above
#: the TE's default 0.9 engineering target so a healthy network running
#: exactly at target classifies as OK.
_DEGRADED_MLU = 0.92
_CONGESTED_LOSS = 1e-3
_OUTAGE_LOSS = 0.05
_OUTAGE_DELIVERY = 0.90


@dataclass
class HealthReport:
    """Outcome of evaluating an allocation on the real network.

    Attributes:
        mlu: Maximum link utilization (post-drop).
        loss_rate: Fraction of admitted traffic dropped in-network.
        delivered_fraction: Delivered rate over *true* total demand
            (captures both in-network drops and demand that was never
            admitted/routed).
        congested_links: Directed edges at full utilization.
        severity: Overall classification.
    """

    mlu: float
    loss_rate: float
    delivered_fraction: float
    congested_links: List[Tuple[str, str]] = field(default_factory=list)
    severity: Severity = Severity.OK

    def is_outage(self) -> bool:
        return self.severity == Severity.OUTAGE

    def summary(self) -> str:
        return (
            f"{self.severity.value}: mlu={self.mlu:.2f} loss={self.loss_rate:.2%} "
            f"delivered={self.delivered_fraction:.2%} "
            f"congested={len(self.congested_links)}"
        )


def assess_health(truth: GroundTruth, true_demand: DemandMatrix) -> HealthReport:
    """Classify one epoch's real network state.

    Args:
        truth: Simulator output for the allocation actually programmed.
        true_demand: The demand hosts actually offered (not the
            controller's belief), the denominator for delivery.
    """
    mlu = truth.max_link_utilization()
    loss = truth.loss_rate()
    offered = true_demand.total()
    delivered = truth.total_delivered() / offered if offered > 0 else 1.0

    if loss >= _OUTAGE_LOSS or delivered < _OUTAGE_DELIVERY:
        severity = Severity.OUTAGE
    elif loss >= _CONGESTED_LOSS or mlu >= 1.0 - 1e-9:
        severity = Severity.CONGESTED
    elif mlu >= _DEGRADED_MLU:
        severity = Severity.DEGRADED
    else:
        severity = Severity.OK

    return HealthReport(
        mlu=mlu,
        loss_rate=loss,
        delivered_fraction=delivered,
        congested_links=truth.congested_edges(),
        severity=severity,
    )

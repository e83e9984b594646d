"""The Hodor pipeline: collect, harden, dynamically check.

:class:`Hodor` is the library's main entry point.  It is designed to
run always-on: every epoch, feed it the current router snapshot and the
controller inputs the control infrastructure produced, and it returns a
:class:`~repro.core.report.ValidationReport` (optionally applying a
response policy and tracking last-known-good inputs).

Example:
    >>> from repro.topologies import fig3_network, fig3_demand
    >>> from repro.net import NetworkSimulator
    >>> from repro.telemetry import TelemetryCollector, Jitter
    >>> topo = fig3_network()
    >>> truth = NetworkSimulator(topo, fig3_demand(), strategy="single").run()
    >>> snapshot = TelemetryCollector(Jitter(0.0)).collect(truth)
    >>> hodor = Hodor(topo)
    >>> report = hodor.validate_demand(snapshot, fig3_demand())
    >>> report.all_valid
    True
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.control.inputs import ControllerInputs, DrainView
from repro.core.collection import SignalCollector
from repro.core.config import HodorConfig
from repro.core.demand_check import DemandChecker
from repro.core.drain_check import DrainChecker
from repro.core.hardening import Hardener
from repro.core.invariants import CheckResult
from repro.core.policy import Policy, PolicyDecision
from repro.core.report import InputVerdict, ValidationReport
from repro.core.signals import CollectedState, HardenedState
from repro.core.topology_check import TopologyChecker
from repro.net.demand import DemandMatrix
from repro.net.topology import Topology

# Module-object import (not ``from ... import build_provenance``): the
# obs package imports leaf core modules, so during a circular package
# load only the module object is guaranteed to resolve; its attributes
# are looked up at call time, after both packages finished loading.
from repro.obs import provenance as _provenance
from repro.telemetry.snapshot import NetworkSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.cache import TopologyCache

__all__ = ["Hodor"]


class Hodor:
    """Input validation for an SDN WAN controller.

    Args:
        reference: The design-time network model (router and link
            inventory with capacities).
        config: Thresholds and options; defaults follow the paper.
        policy: Optional response policy applied by
            :meth:`validate_and_decide`.
        cache: Prebuilt :class:`~repro.engine.cache.TopologyCache` for
            ``reference``; built on the spot when omitted.  The
            always-on engine passes memoized caches in so repeat epochs
            on an unchanged topology skip all topology setup.
    """

    def __init__(
        self,
        reference: Topology,
        config: Optional[HodorConfig] = None,
        policy: Optional[Policy] = None,
        cache: Optional["TopologyCache"] = None,
    ) -> None:
        self._reference = reference
        self._config = config or HodorConfig()
        self._policy = policy
        if cache is None:
            from repro.engine.cache import TopologyCache

            cache = TopologyCache.from_topology(reference)
        self._cache = cache
        self._collector = SignalCollector(self._config)
        self._hardener = Hardener(reference, self._config, cache=cache)
        self._demand_checker = DemandChecker(self._config, cache=cache)
        self._topology_checker = TopologyChecker(self._config)
        self._drain_checker = DrainChecker(self._config, cache=cache)
        self._last_good: Optional[ControllerInputs] = None

    @property
    def config(self) -> HodorConfig:
        return self._config

    @property
    def last_good(self) -> Optional[ControllerInputs]:
        return self._last_good

    # ------------------------------------------------------------------
    # Step-wise API (useful for studies and debugging)
    # ------------------------------------------------------------------

    def collect(self, snapshot: NetworkSnapshot) -> CollectedState:
        """Step 1 only: typed collection of all signals."""
        return self._collector.collect(snapshot)

    def harden(self, snapshot: NetworkSnapshot) -> HardenedState:
        """Steps 1 + 2: the trusted low-level view of the network."""
        return self._hardener.harden(self._collector.collect(snapshot))

    # ------------------------------------------------------------------
    # Full validation
    # ------------------------------------------------------------------

    def validate(self, snapshot: NetworkSnapshot, inputs: ControllerInputs) -> ValidationReport:
        """Validate all three controller inputs against one snapshot."""
        hardened = self.harden(snapshot)
        report = ValidationReport(timestamp=snapshot.timestamp, hardened=hardened)
        self._record(report, self._demand_checker.check(inputs.demand, hardened))
        self._record(report, self._topology_checker.check(inputs.topology, hardened))
        self._record(report, self._drain_checker.check(inputs.drains, hardened))
        return report

    def validate_demand(self, snapshot: NetworkSnapshot, demand: DemandMatrix) -> ValidationReport:
        """Validate only the demand input (Section 4.1 studies)."""
        hardened = self.harden(snapshot)
        report = ValidationReport(timestamp=snapshot.timestamp, hardened=hardened)
        self._record(report, self._demand_checker.check(demand, hardened))
        return report

    def validate_topology(
        self, snapshot: NetworkSnapshot, topology_input: Topology
    ) -> ValidationReport:
        """Validate only the topology input (Section 4.2 studies)."""
        hardened = self.harden(snapshot)
        report = ValidationReport(timestamp=snapshot.timestamp, hardened=hardened)
        self._record(report, self._topology_checker.check(topology_input, hardened))
        return report

    def validate_drains(self, snapshot: NetworkSnapshot, drains: DrainView) -> ValidationReport:
        """Validate only the drain input (Section 4.3 studies)."""
        hardened = self.harden(snapshot)
        report = ValidationReport(timestamp=snapshot.timestamp, hardened=hardened)
        self._record(report, self._drain_checker.check(drains, hardened))
        return report

    def validate_and_decide(
        self, snapshot: NetworkSnapshot, inputs: ControllerInputs
    ) -> PolicyDecision:
        """Validate, apply the configured policy, track last-known-good.

        Raises:
            ValueError: If no policy was configured.
        """
        if self._policy is None:
            raise ValueError("no policy configured; pass policy= to Hodor()")
        report = self.validate(snapshot, inputs)
        decision = self._policy.decide(inputs, report, self._last_good)
        if report.all_valid:
            self._last_good = inputs
        return decision

    # ------------------------------------------------------------------

    @staticmethod
    def _record(report: ValidationReport, check: CheckResult) -> None:
        report.checks[check.input_name] = check
        report.verdicts[check.input_name] = InputVerdict.from_tally(check.input_name, check.tally)
        report.provenance[check.input_name] = _provenance.build_provenance(
            check, report.hardened
        )

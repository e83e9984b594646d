"""Multi-WAN fleet mode: one service validating many tenant WANs.

The paper argues input validation must run continuously in front of
the TE controller; production operators run not one WAN but a fleet of
them.  :mod:`repro.fleet` is that always-on service: a
:class:`FleetSupervisor` multiplexes independent tenants -- each with
its own topology, feeds, cadence, and engine backend -- across a
pool of worker processes (sidestepping the GIL), with admission
control quarantining tenants whose feeds misbehave before they can
starve healthy ones.

Each worker hosts N tenants' :class:`~repro.stream.ingest.StreamPipeline`
runs end to end, streams per-epoch verdict digests back over a results
channel, and rolls its tenants' ``MetricsRegistry`` expositions up into
one fleet-level registry.
Per-tenant :class:`~repro.history.store.HistoryStore` files live under
a store-per-tenant layout with a cross-tenant rollup query path
(``repro history trends --fleet``).

See ``docs/FLEET.md`` for the architecture, worker protocol, admission
rules, and failure semantics.
"""

from repro.fleet.admission import AdmissionController, AdmissionPolicy
from repro.fleet.digest import EpochDigest, digest_report
from repro.fleet.scenario import TenantRun, run_tenant
from repro.fleet.spec import FleetConfig, TenantSpec
from repro.fleet.supervisor import FleetResult, FleetSupervisor, TenantSummary

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "EpochDigest",
    "FleetConfig",
    "FleetResult",
    "FleetSupervisor",
    "TenantRun",
    "TenantSpec",
    "TenantSummary",
    "digest_report",
    "run_tenant",
]

"""Tenant and fleet configuration: everything a worker needs, by value.

A :class:`TenantSpec` is deliberately a small frozen bag of scalars --
no topology objects, no feed handles -- so dispatching a tenant to a
worker process pickles a few hundred bytes once, and the worker
rebuilds the full workload (topology, demand, churned epochs, feeds)
deterministically from the seed.  Two runs of the same spec therefore
produce byte-identical verdict digests, which is what lets the
supervisor reschedule a tenant after a worker crash and *assert* the
re-run agrees with every digest the dead worker already shipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.fleet.admission import AdmissionPolicy
from repro.stream.feed import Perturbations

__all__ = ["FleetConfig", "TenantSpec"]

_BACKENDS = ("python", "vector")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant WAN's complete recipe, picklable by value.

    Attributes:
        tenant: Unique tenant id (also the per-tenant store filename).
        nodes: Synthetic Waxman topology size (ignored with
            ``scenario``).
        epochs: Epochs to stream before the tenant's run completes.
        seed: Topology/demand/churn/perturbation seed.
        scenario: Optional catalog scenario id (``"S01"``...); when
            set the tenant replays that scenario's fault-injected
            timeline instead of the synthetic soak fixture -- the
            in-fleet vs standalone differential runs on these.
        backend: Engine backend, ``"python"`` or ``"vector"``.
        churn: Per-link re-measurement probability per epoch
            (synthetic workload only).
        epoch_spacing_s: Virtual seconds between collection instants.
        lateness_s: Assembler lateness window (virtual seconds).
        reorder / drop / duplicate / delay / fail: Feed perturbation
            probabilities (see :class:`~repro.stream.feed.Perturbations`).
        history: Write validated epochs through to this tenant's
            store file (under the fleet's ``store_dir``).
    """

    tenant: str
    nodes: int = 20
    epochs: int = 10
    seed: int = 0
    scenario: Optional[str] = None
    backend: str = "python"
    churn: float = 0.10
    epoch_spacing_s: float = 10.0
    lateness_s: float = 2.0
    reorder: float = 0.0
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    fail: float = 0.0
    history: bool = False

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant id must be non-empty")
        if "/" in self.tenant or "\x00" in self.tenant:
            raise ValueError(f"tenant id {self.tenant!r} must not contain '/'")
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.nodes < 2:
            raise ValueError(f"nodes must be >= 2, got {self.nodes}")
        self.perturbations()  # raises on a probability outside [0, 1]

    def perturbations(self) -> Perturbations:
        """The feed perturbations this tenant's deliveries suffer."""
        return Perturbations(
            reorder=self.reorder,
            duplicate=self.duplicate,
            delay=self.delay,
            drop=self.drop,
            fail=self.fail,
        )


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-wide supervisor tuning.

    Attributes:
        workers: Worker processes in the pool.
        store_dir: Directory for per-tenant history stores (created on
            demand); ``None`` disables history even for tenants that
            request it.
        admission: Quarantine/budget policy
            (:class:`~repro.fleet.admission.AdmissionPolicy`).
        poll_s: Longest the idle supervisor blocks before re-checking
            worker liveness; it wakes sooner, at once, when a message
            arrives or a worker process exits.
        chaos_crash: Test-only fault injection: ``(worker_id, n)``
            makes that worker's first incarnation hard-kill itself
            (``os._exit``, no goodbye) right after putting its ``n``-th
            digest -- the worker-crash recovery path's deterministic
            trigger.  Its replacement runs normally.  ``None`` in
            production.
    """

    workers: int = 2
    store_dir: Optional[str] = None
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    poll_s: float = 0.2
    chaos_crash: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.poll_s <= 0.0:
            raise ValueError(f"poll_s must be > 0, got {self.poll_s}")


def tenant_store_path(store_dir: str, tenant: str) -> str:
    """The store-per-tenant layout: ``<dir>/<tenant>.sqlite``."""
    return f"{store_dir}/{tenant}.sqlite"


def synthetic_fleet(
    tenants: int,
    nodes: int = 20,
    epochs: int = 10,
    seed: int = 0,
    backend: str = "python",
    history: bool = False,
) -> Tuple[TenantSpec, ...]:
    """N soak-shaped tenant specs with decorrelated seeds (``repro fleet run``'s fleet)."""
    return tuple(
        TenantSpec(
            tenant=f"t{index:04d}",
            nodes=nodes,
            epochs=epochs,
            seed=seed + index * 1009,
            backend=backend,
            history=history,
        )
        for index in range(tenants)
    )

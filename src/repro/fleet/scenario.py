"""Tenant workload construction and the single-tenant run loop.

Workers never receive topologies or feeds over the wire: a
:class:`~repro.fleet.spec.TenantSpec` is a seed-complete recipe, and
:func:`build_workload` rebuilds the identical workload -- topology,
demand, churned epoch timeline, controller inputs -- wherever it runs.
A synthetic tenant's workload is :func:`synthetic_workload`, the one
recipe the soak driver (:func:`repro.stream.soak.run_soak`) shares.
:func:`run_tenant` then drives that workload through the real
streaming stack (:class:`~repro.stream.ingest.StreamPipeline`) exactly
as a standalone deployment would.

That sharing is the differential's backbone: the in-fleet worker and
the standalone comparator call the *same* function, so any divergence
between fleet and standalone digests is a supervisor/worker bug by
construction, not a fixture mismatch.

Heavy dependencies import lazily inside :func:`synthetic_workload` so
``import repro.fleet`` stays cheap (the CLI lists subcommands without
paying for the simulator).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.fleet.digest import EpochDigest, digest_report
from repro.fleet.spec import TenantSpec
from repro.net.topology import EXTERNAL_PEER
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.snapshot import NetworkSnapshot

__all__ = [
    "TenantRun",
    "TenantWorkload",
    "build_workload",
    "churn_snapshot",
    "run_tenant",
    "synthetic_workload",
]


@dataclass
class TenantWorkload:
    """Everything one tenant's pipeline run consumes, rebuilt from seed."""

    topology: object
    hodor_config: object
    epochs: List[Tuple[float, object]]
    inputs_for: Callable[[float], object]


@dataclass
class TenantRun:
    """One completed tenant run's outcome (worker- or standalone-side).

    Attributes:
        tenant: Tenant id.
        digests: Per-epoch digests in seal order.
        epochs_streamed: Epochs the workload carried.
        epochs_sealed: Epochs sealed and validated.
        shed_epochs: Epochs the degradation gate declined.
        updates / late_dropped / duplicates: Assembler counters.
        latencies_s: Seal-to-verdict seconds per validated epoch.
        exposition: The tenant registry's Prometheus text exposition
            (``stream_*`` + engine families), ready for fleet rollup.
        store_path: This tenant's history store file, when written.
    """

    tenant: str
    digests: Tuple[EpochDigest, ...]
    epochs_streamed: int
    epochs_sealed: int
    shed_epochs: int
    updates: int
    late_dropped: int
    duplicates: int
    latencies_s: Tuple[float, ...]
    exposition: str
    store_path: Optional[str] = None

    def to_summary(self) -> Dict[str, object]:
        """The picklable ``tenant_done`` payload (digests travel
        separately, one message per epoch, so a crash loses at most
        the in-flight epoch)."""
        return {
            "tenant": self.tenant,
            "epochs_streamed": self.epochs_streamed,
            "epochs_sealed": self.epochs_sealed,
            "shed_epochs": self.shed_epochs,
            "updates": self.updates,
            "late_dropped": self.late_dropped,
            "duplicates": self.duplicates,
            "latencies_s": list(self.latencies_s),
            "exposition": self.exposition,
            "store_path": self.store_path,
        }


def churn_snapshot(
    snapshot: NetworkSnapshot,
    fraction: float,
    rng: random.Random,
    timestamp: float,
) -> NetworkSnapshot:
    """The next collection: ``fraction`` of links re-measured, all re-stamped.

    Models the production steady state between two collections: most
    counters tick along at the same rate while a random subset of links
    sees its traffic level move.  Each churned link scales *all four* of
    its directed counters (rx and tx, both orientations) by one common
    factor, so R1 symmetry is preserved and churn never fabricates
    corruption.  Every reading is stamped with the new collection
    instant (sample-mode telemetry), so no epoch ever carries a reading
    the staleness bound would discard.

    Args:
        snapshot: The previous epoch's snapshot (not mutated).
        fraction: Probability each internal link is churned.
        rng: Random source (pass a seeded instance for reproducibility).
        timestamp: The new epoch's collection timestamp.
    """
    churned = snapshot.copy()
    churned.timestamp = timestamp
    by_link = {}
    for (node, peer), reading in churned.counters.items():
        reading.timestamp = timestamp
        if peer != EXTERNAL_PEER:
            by_link.setdefault(frozenset((node, peer)), []).append(reading)
    for readings in by_link.values():
        if rng.random() >= fraction:
            continue
        factor = 0.9 + 0.2 * rng.random()
        for reading in readings:
            if isinstance(reading.rx_rate, float):
                reading.rx_rate *= factor
            if isinstance(reading.tx_rate, float):
                reading.tx_rate *= factor
    return churned


def synthetic_workload(
    nodes: int, epochs: int, seed: int, churn: float, epoch_spacing_s: float
) -> TenantWorkload:
    """The synthetic WAN every soak and synthetic tenant runs on.

    A Waxman topology with gravity demand, simulated and collected once;
    the control plane's inputs computed from that collection; then one
    :func:`churn_snapshot` per further epoch, ``epoch_spacing_s`` apart.
    """
    from repro.control.demand_service import records_from_matrix
    from repro.control.infra import ControlPlane
    from repro.net.demand import gravity_demand
    from repro.net.simulation import NetworkSimulator
    from repro.telemetry.collector import TelemetryCollector
    from repro.telemetry.counters import Jitter
    from repro.telemetry.probes import ProbeEngine
    from repro.topologies.synthetic import waxman_topology

    topology = waxman_topology(nodes, seed=seed)
    demand = gravity_demand(topology.node_names(), total=4.0 * nodes, seed=seed)
    truth = NetworkSimulator(topology, demand, strategy="single").run()
    collector = TelemetryCollector(
        Jitter(0.005, seed=seed), probe_engine=ProbeEngine(seed=seed)
    )
    base = collector.collect(truth)
    inputs = ControlPlane(topology).compute_inputs(
        base, records_from_matrix(demand, seed=seed)
    )

    rng = random.Random(seed)
    snapshot = base.copy()
    snapshot.timestamp = 0.0
    timeline: List[Tuple[float, object]] = [(0.0, snapshot)]
    for index in range(1, epochs):
        timestamp = index * epoch_spacing_s
        snapshot = churn_snapshot(snapshot, churn, rng, timestamp)
        timeline.append((timestamp, snapshot))
    return TenantWorkload(
        topology=topology,
        hodor_config=None,
        epochs=timeline,
        inputs_for=lambda _ts: inputs,
    )


def build_workload(spec: TenantSpec) -> TenantWorkload:
    """Rebuild a tenant's full workload deterministically from its spec."""
    if spec.scenario is not None:
        from repro.scenarios.catalog import scenario_by_id

        world = scenario_by_id(spec.scenario).build(seed=spec.seed)
        epochs: List[Tuple[float, object]] = []
        inputs_by_ts: Dict[float, object] = {}
        for index in range(spec.epochs):
            outcome = world.run_epoch(timestamp=float(index) * spec.epoch_spacing_s)
            epochs.append((outcome.snapshot.timestamp, outcome.snapshot))
            inputs_by_ts[outcome.snapshot.timestamp] = outcome.inputs
        return TenantWorkload(
            topology=world.topology,
            hodor_config=world.hodor_config,
            epochs=epochs,
            inputs_for=inputs_by_ts.__getitem__,
        )

    return synthetic_workload(
        spec.nodes, spec.epochs, spec.seed, spec.churn, spec.epoch_spacing_s
    )


async def run_tenant_async(
    spec: TenantSpec,
    store_path: Optional[str] = None,
    deterministic_history: bool = True,
    gate=None,
    on_digest=None,
) -> TenantRun:
    """Run one tenant's workload end to end inside a running loop.

    Args:
        spec: The tenant recipe.
        store_path: Per-tenant history store file (written only when
            both this and ``spec.history`` are set).
        deterministic_history: Byte-reproducible store writes.
        gate: Optional admission gate forwarded to the pipeline
            (``gate(epoch) -> bool``; ``False`` sheds the epoch).
        on_digest: Optional callback invoked with each
            :class:`EpochDigest` as its epoch validates -- the worker
            streams these to the supervisor.
    """
    from repro.engine import ValidationEngine, engine_registry
    from repro.stream.assembler import EpochAssembler
    from repro.stream.feed import Perturbations, make_feeds
    from repro.stream.ingest import IngestConfig, StreamPipeline

    workload = build_workload(spec)
    registry = MetricsRegistry()
    perturb = None
    if spec.reorder or spec.drop or spec.duplicate:
        perturb = Perturbations(
            reorder=spec.reorder, drop=spec.drop, duplicate=spec.duplicate
        )
    feeds = make_feeds(workload.epochs, perturb=perturb, seed=spec.seed)

    sink = None
    if store_path is not None and spec.history:
        from repro.history.sink import HistoryConfig, HistorySink

        sink = HistorySink(
            HistoryConfig(path=store_path, deterministic=deterministic_history),
            metrics=registry,
        )

    digests: List[EpochDigest] = []

    def observe(epoch, report, latency_s: float) -> None:
        digest = digest_report(spec.tenant, epoch, report, latency_s)
        digests.append(digest)
        if on_digest is not None:
            on_digest(digest)

    assembler = EpochAssembler(
        routers=list(feeds), lateness_s=spec.lateness_s, metrics=registry
    )
    engine = ValidationEngine(
        workload.topology,
        config=workload.hodor_config,
        backend=spec.backend,
        metrics=registry,
    )
    try:
        pipeline = StreamPipeline(
            list(feeds.values()),
            assembler,
            engine,
            inputs_for=workload.inputs_for,
            config=IngestConfig(queue_size=spec.queue_size, deterministic=True),
            metrics=registry,
            history=sink,
            gate=gate,
            on_epoch=observe,
        )
        result = await pipeline.run_async()
        engine_registry(engine.stats, registry=registry)
    finally:
        if sink is not None:
            sink.close()

    return TenantRun(
        tenant=spec.tenant,
        digests=tuple(digests),
        epochs_streamed=len(workload.epochs),
        epochs_sealed=len(result.epochs),
        shed_epochs=result.shed_epochs,
        updates=result.updates,
        late_dropped=result.late_dropped,
        duplicates=result.duplicates,
        latencies_s=tuple(result.epoch_latency_s),
        exposition=registry.render(),
        store_path=store_path if sink is not None else None,
    )


def run_tenant(
    spec: TenantSpec,
    store_path: Optional[str] = None,
    deterministic_history: bool = True,
    gate=None,
    on_digest=None,
) -> TenantRun:
    """Standalone entry: run one tenant on a fresh event loop.

    This is the comparator half of the in-fleet vs standalone
    differential -- the worker runs the identical coroutine.
    """
    import asyncio

    return asyncio.run(
        run_tenant_async(
            spec,
            store_path=store_path,
            deterministic_history=deterministic_history,
            gate=gate,
            on_digest=on_digest,
        )
    )

"""Tenant workload construction and the single-tenant run loop.

Workers never receive topologies or feeds over the wire: a
:class:`~repro.fleet.spec.TenantSpec` is a seed-complete recipe, and
:func:`build_workload` rebuilds the identical workload -- topology,
demand, churned epoch timeline, controller inputs -- wherever it runs.
A synthetic tenant's workload is :func:`synthetic_workload`.
:func:`run_tenant_async` then drives that workload through the real
streaming stack (:class:`~repro.stream.ingest.StreamPipeline`) exactly
as a standalone deployment would.  A soak is a one-tenant run:
:func:`run_soak` is :func:`run_tenant_async` plus throughput and
latency figures (``repro stream --soak`` reports them).

That sharing is the differential's backbone: the in-fleet worker and
the standalone comparator call the *same* function, so any divergence
between fleet and standalone digests is a supervisor/worker bug by
construction, not a fixture mismatch.

The simulator and control plane import lazily inside
:func:`synthetic_workload`, so ``import repro.fleet`` does not pay for
them.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine import ValidationEngine, engine_registry
from repro.fleet.digest import EpochDigest, digest_report
from repro.fleet.spec import TenantSpec
from repro.history.analytics import percentile
from repro.history.sink import HistoryConfig, HistorySink
from repro.net.topology import EXTERNAL_PEER
from repro.obs.clock import monotonic_clock
from repro.obs.metrics import MetricsRegistry
from repro.stream.assembler import EpochAssembler
from repro.stream.feed import make_feeds
from repro.stream.ingest import IngestConfig, StreamPipeline
from repro.telemetry.snapshot import NetworkSnapshot

__all__ = [
    "SoakResult",
    "TenantRun",
    "TenantWorkload",
    "build_workload",
    "churn_snapshot",
    "run_soak",
    "run_tenant",
    "run_stored_tenant",
    "run_tenant_async",
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
        nodes / links: Topology shape.
        wall_s: Real seconds the pipeline ran (workload build
            excluded).
        assembly_latency_s: First-delivery-to-seal seconds per
            validated epoch.
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
    nodes: int
    links: int
    wall_s: float
    assembly_latency_s: Tuple[float, ...]
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
    *,
    history: Optional[HistorySink] = None,
    metrics: Optional[MetricsRegistry] = None,
    ingest: Optional[IngestConfig] = None,
    gate=None,
    on_digest=None,
) -> TenantRun:
    """Run one tenant's workload end to end inside a running loop.

    Args:
        spec: The tenant recipe.
        history: Optional caller-owned sink every validated epoch is
            written through to (the caller closes it).
        metrics: Optional shared registry; a fresh one by default.
        ingest: Queue bound and retry tuning (``IngestConfig()`` by
            default).
        gate: Optional admission gate forwarded to the pipeline
            (``gate(epoch) -> bool``; ``False`` sheds the epoch).
        on_digest: Optional callback invoked with each
            :class:`EpochDigest` as its epoch validates -- the worker
            streams these to the supervisor.
    """
    workload = build_workload(spec)
    registry = metrics if metrics is not None else MetricsRegistry()
    feeds = make_feeds(workload.epochs, perturb=spec.perturbations(), seed=spec.seed)
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
    pipeline = StreamPipeline(
        list(feeds.values()),
        assembler,
        engine,
        inputs_for=workload.inputs_for,
        config=ingest or IngestConfig(),
        metrics=registry,
        history=history,
        gate=gate,
        on_epoch=observe,
    )
    start = monotonic_clock()
    result = await pipeline.run_async()
    wall_s = monotonic_clock() - start
    engine_registry(engine.stats, registry=registry)

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
        nodes=workload.topology.num_nodes,
        links=workload.topology.num_links,
        wall_s=wall_s,
        assembly_latency_s=tuple(epoch.assembly_latency_s for epoch in result.epochs),
        store_path=history.config.path if history is not None else None,
    )


async def run_stored_tenant(
    spec: TenantSpec,
    store_path: Optional[str] = None,
    gate=None,
    on_digest=None,
) -> TenantRun:
    """:func:`run_tenant_async` on the tenant's own registry, writing
    through to its own store at ``store_path`` when ``spec.history`` is
    set (closed when the run ends) -- how the fleet worker and
    :func:`run_tenant` run a tenant.  The store is byte-reproducible
    (virtual-time anchors, zeroed latencies), so a rescheduled tenant's
    rewritten store matches the original bytes."""
    registry = MetricsRegistry()
    sink = None
    if store_path is not None and spec.history:
        sink = HistorySink(
            HistoryConfig(path=store_path, deterministic=True),
            metrics=registry,
        )
    try:
        return await run_tenant_async(
            spec, history=sink, metrics=registry, gate=gate, on_digest=on_digest
        )
    finally:
        if sink is not None:
            sink.close()


def run_tenant(spec: TenantSpec, store_path: Optional[str] = None) -> TenantRun:
    """Standalone entry: run one tenant on a fresh event loop.

    This is the comparator half of the in-fleet vs standalone
    differential -- the worker runs the identical coroutine.
    """
    return asyncio.run(run_stored_tenant(spec, store_path))


@dataclass
class SoakResult:
    """What one soak run measured.

    Attributes:
        nodes / links: Topology shape.
        epochs_streamed: Epochs the run expected to seal.
        epochs_sealed: Epochs actually sealed and validated (equal to
            ``epochs_streamed`` unless the pipeline wedged).
        updates: Deliveries offered to the assembler.
        wall_s: Real seconds for the whole pipeline run.
        updates_per_s: Sustained delivery throughput.
        epochs_per_s: Sustained validated-epoch throughput.
        p50_ms / p95_ms / p99_ms: Assembly-latency percentiles
            (first delivery to seal, real milliseconds).
        late_dropped: Deliveries that missed their epoch's seal.
        duplicates: Duplicate deliveries suppressed.
        feed_dropped: Deliveries the feeds dropped at the source.
        retries: Feed delivery retries.
        abandoned: Feeds abandoned after exhausting retries.
        complete_epochs / partial_epochs: Coverage split.
        metrics: The run's registry (``stream_*`` + engine families),
            ready for Prometheus exposition.
        history_epochs: Epoch rows retained in the history store at
            run end (post-retention; 0 with no history sink).
        history_bytes: Store file bytes before the final compaction.
        history_bytes_compacted: Store file bytes after the final
            compaction (checkpoint + VACUUM rewrite).
        history_compaction_deleted: Epoch rows the final compaction's
            retention sweep deleted.
        alerts_fired: Alerts appended to the store ledger.
    """

    nodes: int
    links: int
    epochs_streamed: int
    epochs_sealed: int
    updates: int
    wall_s: float
    updates_per_s: float
    epochs_per_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    late_dropped: int
    duplicates: int
    feed_dropped: int
    retries: int
    abandoned: int
    complete_epochs: int
    partial_epochs: int
    metrics: MetricsRegistry = field(repr=False, default_factory=MetricsRegistry)
    history_epochs: int = 0
    history_bytes: int = 0
    history_bytes_compacted: int = 0
    history_compaction_deleted: int = 0
    alerts_fired: int = 0


def run_soak(
    spec: TenantSpec,
    history: Optional[HistorySink] = None,
    ingest: Optional[IngestConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> SoakResult:
    """Run one tenant as a soak and measure it.

    The delivery counters are read back from ``metrics``, so pass a
    fresh registry (or none).  A ``history`` sink is compacted when the
    run ends; the caller still owns and closes it.
    """
    registry = metrics if metrics is not None else MetricsRegistry()
    run = asyncio.run(
        run_tenant_async(spec, history=history, metrics=registry, ingest=ingest)
    )
    seal_ms = [1000.0 * latency for latency in run.assembly_latency_s] or [0.0]
    wall_s = run.wall_s
    complete = sum(digest.complete for digest in run.digests)
    result = SoakResult(
        nodes=run.nodes,
        links=run.links,
        epochs_streamed=run.epochs_streamed,
        epochs_sealed=run.epochs_sealed,
        updates=run.updates,
        wall_s=wall_s,
        updates_per_s=run.updates / wall_s if wall_s > 0.0 else 0.0,
        epochs_per_s=run.epochs_sealed / wall_s if wall_s > 0.0 else 0.0,
        p50_ms=percentile(seal_ms, 50),
        p95_ms=percentile(seal_ms, 95),
        p99_ms=percentile(seal_ms, 99),
        late_dropped=run.late_dropped,
        duplicates=run.duplicates,
        feed_dropped=int(registry.get("stream_feed_dropped_total").value),
        retries=int(registry.get("stream_feed_retries_total").value),
        abandoned=int(registry.get("stream_feeds_abandoned_total").value),
        complete_epochs=complete,
        partial_epochs=run.epochs_sealed - complete,
        metrics=registry,
    )
    if history is not None:
        compaction = history.compact()
        result.history_epochs = history.store.epoch_count()
        result.history_bytes = compaction.bytes_before
        result.history_bytes_compacted = compaction.bytes_after
        result.history_compaction_deleted = compaction.epochs_deleted
        result.alerts_fired = len(history.store.alerts())
    return result

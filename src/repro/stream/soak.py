"""E15 soak driver: sustained streamed ingestion under churn.

Runs N epochs of churning feeds through the full streaming stack --
perturbed :class:`~repro.stream.feed.RouterFeed` sources, bounded-queue
:class:`~repro.stream.ingest.StreamPipeline`, watermark
:class:`~repro.stream.assembler.EpochAssembler`, and a live
:class:`~repro.engine.ValidationEngine` -- and reports sustained
throughput plus assembly-latency percentiles.  This is the load shape
the ROADMAP's north star describes: heavy traffic, always on, as fast
as the hardware allows.

The fixture is the synthetic fleet tenant's,
:func:`repro.fleet.scenario.synthetic_workload`: a random Waxman
topology with gravity demand, telemetry collected once and then churned
per epoch (R1-preserving link re-measurement, every reading re-stamped
to its epoch), so streamed epochs carry realistic steady-state deltas
and the vector backend has reuse to find.  Heavy dependencies are
imported lazily so ``repro.stream`` stays cheap to import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.obs.clock import monotonic_clock
from repro.obs.metrics import MetricsRegistry
from repro.stream.assembler import EpochAssembler
from repro.stream.feed import Perturbations, make_feeds
from repro.stream.ingest import IngestConfig, StreamPipeline

__all__ = ["SoakConfig", "SoakResult", "run_soak"]


@dataclass(frozen=True)
class SoakConfig:
    """One soak run's knobs.

    Attributes:
        nodes: Waxman topology size.
        epochs: Epochs to stream (beyond the base epoch).
        seed: Topology/demand/churn/perturbation seed.
        churn: Per-link probability of re-measurement each epoch.
        epoch_spacing_s: Virtual seconds between collection instants.
        lateness_s: Assembler lateness window (virtual seconds).
        perturb: Feed delivery perturbations.
        backend: Engine backend, ``"python"`` or ``"vector"``.
        queue_size: Ingest queue bound.
        backpressure: ``"block"`` or ``"drop-oldest"``.
        deterministic: Merged single-producer delivery order.
        history_path: When set, attach a history sink at this sqlite
            path and write every validated epoch through (E18's store).
        history_deterministic: Byte-reproducible store writes (epoch
            virtual timestamps, zeroed latencies).  Default off for
            soak runs -- E18 measures *real* verdict-latency drift.
        history_retention_epochs: Retention cap on stored epochs
            (``None`` = unbounded; E18 sets this to prove sublinear
            store growth).
        history_snapshot_every: Engine counter-snapshot cadence.
        history_compact_every: Mid-run full-compaction cadence
            (0 = only the final compaction).
        alert_rules: Alert rule grammar strings evaluated as epochs
            stream (see :mod:`repro.history.alerts`).
        alert_jsonl: JSONL fan-out path for fired alerts.
    """

    nodes: int = 80
    epochs: int = 50
    seed: int = 0
    churn: float = 0.10
    epoch_spacing_s: float = 10.0
    lateness_s: float = 2.0
    perturb: Perturbations = Perturbations(reorder=0.10, drop=0.01, duplicate=0.02)
    backend: str = "python"
    queue_size: int = 256
    backpressure: str = "block"
    deterministic: bool = True
    history_path: Optional[str] = None
    history_deterministic: bool = False
    history_retention_epochs: Optional[int] = None
    history_snapshot_every: int = 10
    history_compact_every: int = 0
    alert_rules: Tuple[str, ...] = ()
    alert_jsonl: Optional[str] = None


@dataclass
class SoakResult:
    """What one soak run measured.

    Attributes:
        nodes / links: Topology shape.
        epochs_streamed: Epochs the run expected to seal.
        epochs_sealed: Epochs actually sealed and validated (equal to
            ``epochs_streamed`` unless the pipeline wedged -- the E15
            acceptance bar).
        updates: Deliveries offered to the assembler.
        wall_s: Real seconds for the whole pipeline run.
        updates_per_s: Sustained delivery throughput.
        epochs_per_s: Sustained validated-epoch throughput.
        p50_ms / p95_ms / p99_ms: Assembly-latency percentiles
            (first delivery to seal, real milliseconds).
        late_dropped: Deliveries that missed their epoch's seal.
        duplicates: Duplicate deliveries suppressed.
        feed_dropped: Deliveries the feeds dropped at the source.
        backpressure_dropped: Events shed by drop-oldest.
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
    backpressure_dropped: int
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


def _percentile_ms(sorted_s: List[float], q: float) -> float:
    """Nearest-rank percentile of a pre-sorted seconds list, in ms."""
    if not sorted_s:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_s)))
    return sorted_s[rank - 1] * 1000.0


def run_soak(
    config: Optional[SoakConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> SoakResult:
    """Run one soak to completion and measure it."""
    from repro.engine import ValidationEngine, engine_registry
    from repro.fleet.scenario import synthetic_workload

    config = config or SoakConfig()
    registry = metrics if metrics is not None else MetricsRegistry()
    workload = synthetic_workload(
        config.nodes, config.epochs, config.seed, config.churn, config.epoch_spacing_s
    )
    topology = workload.topology

    sink = None
    if config.history_path is not None:
        from repro.history.alerts import AlertEngine, JsonlAlertSink
        from repro.history.sink import HistoryConfig, HistorySink
        from repro.history.store import RetentionPolicy

        alert_engine = None
        if config.alert_rules:
            sinks = (
                [JsonlAlertSink(config.alert_jsonl)]
                if config.alert_jsonl is not None
                else []
            )
            alert_engine = AlertEngine(
                config.alert_rules, sinks=sinks, metrics=registry
            )
        sink = HistorySink(
            HistoryConfig(
                path=config.history_path,
                deterministic=config.history_deterministic,
                counter_snapshot_every=config.history_snapshot_every,
                retention=RetentionPolicy(max_epochs=config.history_retention_epochs),
                compact_every=config.history_compact_every,
            ),
            alerts=alert_engine,
            metrics=registry,
        )

    feeds = make_feeds(workload.epochs, perturb=config.perturb, seed=config.seed)
    assembler = EpochAssembler(
        routers=list(feeds), lateness_s=config.lateness_s, metrics=registry
    )
    engine = ValidationEngine(topology, backend=config.backend, metrics=registry)
    pipeline = StreamPipeline(
        list(feeds.values()),
        assembler,
        engine,
        inputs_for=workload.inputs_for,
        config=IngestConfig(
            queue_size=config.queue_size,
            backpressure=config.backpressure,
            deterministic=config.deterministic,
        ),
        metrics=registry,
        history=sink,
    )
    start = monotonic_clock()
    result = pipeline.run()
    wall_s = monotonic_clock() - start
    engine_registry(engine.stats, registry=registry)

    history_epochs = history_bytes = history_compacted = deleted = alerts_fired = 0
    if sink is not None:
        compaction = sink.compact()
        history_bytes = compaction.bytes_before
        history_compacted = compaction.bytes_after
        deleted = compaction.epochs_deleted
        history_epochs = sink.store.epoch_count()
        alerts_fired = len(sink.store.alerts())
        sink.close()

    latencies = sorted(epoch.assembly_latency_s for epoch in result.epochs)
    feed_dropped = sum(feed.stats.dropped for feed in feeds.values())
    return SoakResult(
        nodes=topology.num_nodes,
        links=topology.num_links,
        epochs_streamed=config.epochs,
        epochs_sealed=len(result.epochs),
        updates=result.updates,
        wall_s=wall_s,
        updates_per_s=result.updates / wall_s if wall_s > 0.0 else 0.0,
        epochs_per_s=len(result.epochs) / wall_s if wall_s > 0.0 else 0.0,
        p50_ms=_percentile_ms(latencies, 0.50),
        p95_ms=_percentile_ms(latencies, 0.95),
        p99_ms=_percentile_ms(latencies, 0.99),
        late_dropped=result.late_dropped,
        duplicates=result.duplicates,
        feed_dropped=feed_dropped,
        backpressure_dropped=result.backpressure_dropped,
        retries=result.retries,
        abandoned=len(result.abandoned),
        complete_epochs=result.complete_epochs,
        partial_epochs=result.partial_epochs,
        metrics=registry,
        history_epochs=history_epochs,
        history_bytes=history_bytes,
        history_bytes_compacted=history_compacted,
        history_compaction_deleted=deleted,
        alerts_fired=alerts_fired,
    )

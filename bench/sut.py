"""Construction of the system under test -- the only such file.

Every program object the harness drives (engine, feeds, assembler,
pipeline, folder, history sink, fleet) is built here, through the public
names imported below; ``bench/README.md`` lists them as load-bearing.

Arguments that merely select today's production path (``backend``,
``build_snapshots``, ``scatter``, ...) go through :func:`_accepted`, which
drops any keyword the constructor no longer takes.  A change that
collapses the execution matrix can delete those knobs without touching
``bench/``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import inspect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import ValidationEngine
from repro.fleet import FleetConfig, FleetSupervisor, TenantSpec, digest_report, run_tenant
from repro.fleet.scenario import build_workload
from repro.history.sink import HistoryConfig, HistorySink
from repro.obs.metrics import MetricsRegistry
from repro.stream.assembler import AssembledEpoch, EpochAssembler
from repro.stream.feed import Perturbations, make_feeds
from repro.stream.fold import EventFolder
from repro.stream.ingest import IngestConfig, StreamPipeline

__all__ = [
    "E15_PERTURB",
    "assembler",
    "batch_epoch",
    "build_workload",
    "digest_report",
    "drain",
    "engine",
    "feeds",
    "fleet",
    "folder",
    "history_sink",
    "oracle_spec",
    "pipeline",
    "run_in_worker_loop",
    "run_tenant",
    "tenant_specs",
]

#: E15's delivery perturbations: out-of-order, lossy, duplicated feeds.
E15_PERTURB = {"reorder": 0.10, "drop": 0.01, "duplicate": 0.02}


def _accepted(factory, **kwargs):
    """The subset of ``kwargs`` that ``factory`` still takes."""
    if dataclasses.is_dataclass(factory):
        known = {f.name for f in dataclasses.fields(factory)}
    else:
        known = set(inspect.signature(factory).parameters)
    return {name: value for name, value in kwargs.items() if name in known}


def engine(topology, config=None, oracle: bool = False) -> ValidationEngine:
    """The production engine, or the per-entity reference as oracle."""
    backend = "python" if oracle else "vector"
    return ValidationEngine(
        topology, config=config, **_accepted(ValidationEngine, backend=backend)
    )


def feeds(epochs, seed: int) -> Dict[str, object]:
    """One perturbed feed per router over the epoch sequence."""
    return make_feeds(epochs, perturb=Perturbations(**E15_PERTURB), seed=seed)


def assembler(routers: Sequence[str], lateness_s: float) -> EpochAssembler:
    """Event-buffer sealing: the engine folds the sealed events."""
    return EpochAssembler(
        routers=list(routers),
        lateness_s=lateness_s,
        **_accepted(EpochAssembler, build_snapshots=False),
    )


def pipeline(
    feed_list, assembler_, engine_, inputs_for, history=None, on_epoch=None
) -> StreamPipeline:
    """Closed loop, one merged producer, blocking 256-slot queue."""
    config = IngestConfig(
        **_accepted(
            IngestConfig, deterministic=True, queue_size=256, backpressure="block"
        )
    )
    # The pipeline registers its gauges on the assembler's registry; the
    # benchmark's stub assembler has none of its own.
    metrics = None if hasattr(assembler_, "metrics") else MetricsRegistry()
    return StreamPipeline(
        list(feed_list),
        assembler_,
        engine_,
        inputs_for=inputs_for,
        config=config,
        metrics=metrics,
        history=history,
        on_epoch=on_epoch,
    )


def run_in_worker_loop(pipe: StreamPipeline):
    """Run a pipeline the way a fleet worker does: as a coroutine on a
    loop that is already the process's own, not through ``run()`` /
    ``asyncio.run`` (whose SIGINT-handler bookkeeping formats the whole
    ``StreamResult``; see README, finding 3)."""
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(pipe.run_async())
    finally:
        loop.close()


def folder() -> EventFolder:
    return EventFolder()


def history_sink(path: str) -> HistorySink:
    """The sink a fleet worker attaches to a tenant's pipeline."""
    return HistorySink(HistoryConfig(path=path, deterministic=True))


def batch_epoch(timestamp: float, updates: int) -> AssembledEpoch:
    """Coverage record for a snapshot validated without the stream, so
    :func:`digest_report` fingerprints it the way it does sealed epochs."""
    return AssembledEpoch(
        timestamp=timestamp,
        snapshot=None,
        coverage={},
        expected=(),
        missing=(),
        complete=True,
        sealed_by="batch",
        updates=updates,
        duplicates=0,
        assembly_latency_s=0.0,
    )


def tenant_specs(
    tenants: int, nodes: int, epochs: int, seed: int
) -> Tuple[TenantSpec, ...]:
    """Soak-shaped tenants with decorrelated seeds.

    One-second epoch spacing keeps the oldest un-churned reading of
    ``build_workload``'s fixture at ``epochs - 1`` s, under the 60 s
    staleness bound, so the fleet validates fresh telemetry too.
    """
    return tuple(
        TenantSpec(
            tenant=f"t{index:04d}",
            nodes=nodes,
            epochs=epochs,
            seed=seed * 100003 + index * 1009,
            epoch_spacing_s=1.0,
            lateness_s=0.5,
            history=True,
            **E15_PERTURB,
            **_accepted(TenantSpec, backend="vector", scatter=True),
        )
        for index in range(tenants)
    )


def oracle_spec(spec: TenantSpec) -> TenantSpec:
    """The same tenant on the reference backend, without history."""
    return dataclasses.replace(
        spec, history=False, **_accepted(TenantSpec, backend="python")
    )


def fleet(specs, store_dir: Optional[str], workers: int = 2) -> FleetSupervisor:
    return FleetSupervisor(specs, FleetConfig(workers=workers, store_dir=store_dir))


def drain(feed) -> List[object]:
    """Every delivery of one feed, in delivery order (consumes it)."""
    return list(iter(feed.next_event, None))

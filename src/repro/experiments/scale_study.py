"""E9/E14: validation cost vs network size, and what tracing costs.

The paper envisions Hodor "as an always-on system that continuously
validates inputs to the SDN controller as it receives them" (Section
3.2), which only works if a validation pass is cheap at WAN scale.
This study measures wall-clock cost of the full pipeline (collect +
harden + all three checks) over random Waxman topologies of growing
size (E9), and the engine's cost with a live tracer (E14).  The
streamed and vector-backend shapes are measured by the ``bench``
harness (``stream_fresh``, ``engine_scale``, ``engine_faulty``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.control.demand_service import records_from_matrix
from repro.control.infra import ControlPlane
from repro.core.pipeline import Hodor
from repro.engine import ValidationEngine, engine_registry
from repro.fleet.scenario import churn_snapshot
from repro.net.demand import gravity_demand
from repro.net.simulation import NetworkSimulator
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.counters import Jitter
from repro.telemetry.probes import ProbeEngine
from repro.topologies.synthetic import waxman_topology

__all__ = [
    "ScaleRow",
    "EngineScaleRow",
    "TraceOverheadRow",
    "ScaleStudy",
]


@dataclass(frozen=True)
class ScaleRow:
    """Pipeline cost at one network size.

    Attributes:
        nodes: Router count.
        links: Link count.
        signals: Individual signals in the snapshot.
        validate_ms: Mean wall-clock per full validation pass.
        harden_ms: Mean wall-clock for collect+harden only.
    """

    nodes: int
    links: int
    signals: int
    validate_ms: float
    harden_ms: float


@dataclass(frozen=True)
class TraceOverheadRow:
    """E14: engine cost with tracing off (NullTracer) vs fully on.

    Attributes:
        nodes: Router count.
        links: Link count.
        epochs: Timed epochs per measurement (after one warm-up).
        off_ms: Best per-epoch wall-clock with the default
            :class:`~repro.obs.trace.NullTracer` -- the shipped
            hot path.
        on_ms: Best per-epoch wall-clock with a live
            :class:`~repro.obs.trace.Tracer` recording the complete
            span tree plus per-verdict provenance instants.
        overhead: ``on_ms / off_ms - 1``.
        off_noise: Relative spread of the tracing-off repetitions,
            ``max/min - 1`` -- the measurement noise floor the
            overhead must be read against.
        spans: Spans one traced replay records.
        instants: Instant events one traced replay records.
    """

    nodes: int
    links: int
    epochs: int
    off_ms: float
    on_ms: float
    overhead: float
    off_noise: float
    spans: int
    instants: int


@dataclass(frozen=True)
class EngineScaleRow:
    """Serial vs always-on-engine cost at one network size.

    Attributes:
        nodes: Router count.
        links: Link count.
        epochs: Epochs replayed per measurement.
        serial_ms: Mean per-epoch cost of the stateless deployment
            model -- a fresh :class:`~repro.core.pipeline.Hodor` built
            for every epoch, paying topology setup each time.
        engine_ms: Best mean per-epoch cost of one long-lived engine
            (``backend="python"``) over the same epochs.
        cache_hits: Topology-cache hits the last engine run took
            (``epochs - 1`` when the topology never changed).
    """

    nodes: int
    links: int
    epochs: int
    serial_ms: float
    engine_ms: float
    cache_hits: int


class ScaleStudy:
    """Validation-latency scaling over random WAN topologies.

    Args:
        seed: Topology/demand seed.
        repetitions: Timed repetitions per size (mean reported).
    """

    def __init__(self, seed: int = 0, repetitions: int = 3) -> None:
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        self._seed = seed
        self._repetitions = repetitions

    def _epoch_fixture(self, size: int):
        """One size's topology, snapshot, and controller inputs."""
        topology = waxman_topology(size, seed=self._seed)
        demand = gravity_demand(
            topology.node_names(), total=4.0 * size, seed=self._seed
        )
        truth = NetworkSimulator(topology, demand, strategy="single").run()
        collector = TelemetryCollector(
            Jitter(0.005, seed=self._seed), probe_engine=ProbeEngine(seed=self._seed)
        )
        snapshot = collector.collect(truth)
        plane = ControlPlane(topology)
        records = records_from_matrix(demand, seed=self._seed)
        inputs = plane.compute_inputs(snapshot, records)
        return topology, snapshot, inputs

    def run(self, sizes: Sequence[int] = (10, 20, 40, 80)) -> List[ScaleRow]:
        """Measure pipeline cost at each node count."""
        rows = []
        for size in sizes:
            topology, snapshot, inputs = self._epoch_fixture(size)
            hodor = Hodor(topology)

            start = time.perf_counter()
            for _ in range(self._repetitions):
                hodor.validate(snapshot, inputs)
            validate_ms = (time.perf_counter() - start) * 1000 / self._repetitions

            start = time.perf_counter()
            for _ in range(self._repetitions):
                hodor.harden(snapshot)
            harden_ms = (time.perf_counter() - start) * 1000 / self._repetitions

            rows.append(
                ScaleRow(
                    nodes=topology.num_nodes,
                    links=topology.num_links,
                    signals=snapshot.signal_count(),
                    validate_ms=validate_ms,
                    harden_ms=harden_ms,
                )
            )
        return rows

    def run_engine(
        self,
        sizes: Sequence[int] = (10, 20, 40, 80),
        epochs: int = 5,
    ) -> List[EngineScaleRow]:
        """Serial (fresh pipeline per epoch) vs always-on engine.

        The serial column prices the stateless deployment model the
        engine replaces: every epoch constructs a fresh
        :class:`~repro.core.pipeline.Hodor`, so every epoch pays
        topology setup.  The engine column replays the same epoch
        stream through one long-lived
        :class:`~repro.engine.ValidationEngine`, which pays setup once
        and takes topology-cache hits on the remaining epochs.

        Args:
            sizes: Node counts to measure.
            epochs: Epochs replayed per measurement.
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        rows = []
        for size in sizes:
            topology, snapshot, inputs = self._epoch_fixture(size)

            def time_serial() -> float:
                start = time.perf_counter()
                for _ in range(epochs):
                    Hodor(topology).validate(snapshot, inputs)
                return (time.perf_counter() - start) * 1000 / epochs

            # Min over repetitions: wall-clock noise only ever adds.
            serial_ms = min(time_serial() for _ in range(self._repetitions))

            engine_ms = float("inf")
            cache_hits = 0
            for _ in range(self._repetitions):
                engine = ValidationEngine(topology)
                start = time.perf_counter()
                for _ in range(epochs):
                    engine.validate(snapshot, inputs)
                engine_ms = min(
                    engine_ms, (time.perf_counter() - start) * 1000 / epochs
                )
                cache_hits = engine.stats.cache_hits

            rows.append(
                EngineScaleRow(
                    nodes=topology.num_nodes,
                    links=topology.num_links,
                    epochs=epochs,
                    serial_ms=serial_ms,
                    engine_ms=engine_ms,
                    cache_hits=cache_hits,
                )
            )
        return rows

    def run_trace_overhead(
        self,
        sizes: Sequence[int] = (80,),
        epochs: int = 10,
        churn: float = 0.10,
        export_dir: Optional[str] = None,
    ) -> List[TraceOverheadRow]:
        """E14: what does observability cost the validation hot path?

        Replays the identical churned epoch stream through two engines:
        one with the default :class:`~repro.obs.trace.NullTracer`
        (tracing off -- the shipped configuration) and one with a live
        :class:`~repro.obs.trace.Tracer` plus a shared
        :class:`~repro.obs.metrics.MetricsRegistry` recording the full
        span tree, verdict provenance instants, and latency histograms.
        Best-of-repetitions per-epoch cost for each, with the
        tracing-off repetition spread reported as the noise floor.

        Args:
            sizes: Node counts to measure.
            epochs: Timed epochs per measurement.
            churn: Per-link probability of moving each epoch.
            export_dir: When given, the last traced run's Chrome trace
                (``E14_trace.json``) and Prometheus exposition
                (``E14_metrics.prom``) are written there, so CI can
                archive real artifacts produced under measurement.
        """
        from repro.obs import MetricsRegistry, Tracer

        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        rows = []
        for size in sizes:
            topology, snapshot, inputs = self._epoch_fixture(size)
            rng = random.Random(self._seed)
            snapshots = [snapshot]
            for epoch in range(1, epochs + 1):
                snapshots.append(
                    churn_snapshot(snapshots[-1], churn, rng, float(epoch))
                )

            def replay(tracer=None, metrics=None) -> float:
                engine = ValidationEngine(
                    topology, tracer=tracer, metrics=metrics
                )
                engine.validate(snapshots[0], inputs)  # warm-up
                start = time.perf_counter()
                for snap in snapshots[1:]:
                    engine.validate(snap, inputs)
                elapsed = (time.perf_counter() - start) * 1000 / epochs
                if metrics is not None:
                    engine_registry(engine.stats, registry=metrics)
                return elapsed

            off_runs = [replay() for _ in range(self._repetitions)]
            off_ms = min(off_runs)
            off_noise = max(off_runs) / off_ms - 1.0 if off_ms else 0.0

            on_ms = float("inf")
            tracer = None
            registry = None
            for _ in range(self._repetitions):
                tracer = Tracer()
                registry = MetricsRegistry()
                on_ms = min(on_ms, replay(tracer=tracer, metrics=registry))
            if export_dir is not None:
                tracer.write_chrome_trace(f"{export_dir}/E14_trace.json")
                registry.write(f"{export_dir}/E14_metrics.prom")

            events = tracer.events()
            rows.append(
                TraceOverheadRow(
                    nodes=topology.num_nodes,
                    links=topology.num_links,
                    epochs=epochs,
                    off_ms=off_ms,
                    on_ms=on_ms,
                    overhead=on_ms / off_ms - 1.0 if off_ms else 0.0,
                    off_noise=off_noise,
                    spans=sum(1 for e in events if e["type"] == "span"),
                    instants=sum(1 for e in events if e["type"] == "instant"),
                )
            )
        return rows

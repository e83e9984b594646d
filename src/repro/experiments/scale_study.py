"""E9/E14/E15/E17: validation cost vs network size and churn.

The paper envisions Hodor "as an always-on system that continuously
validates inputs to the SDN controller as it receives them" (Section
3.2), which only works if a validation pass is cheap at WAN scale.
This study measures wall-clock cost of the full pipeline (collect +
harden + all three checks) over random Waxman topologies of growing
size, plus (E17) the vector backend's advantage when only a fraction
of signals move between epochs -- the production steady state.
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
from repro.net.demand import DemandMatrix, gravity_demand
from repro.net.simulation import NetworkSimulator
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.counters import Jitter
from repro.telemetry.probes import ProbeEngine
from repro.topologies.synthetic import waxman_topology

__all__ = [
    "ScaleRow",
    "EngineScaleRow",
    "TraceOverheadRow",
    "VectorRow",
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
class VectorRow:
    """E17: array-compiled vs per-entity epoch cost at one size.

    Attributes:
        nodes: Router count.
        links: Link count.
        epochs: Timed epochs per vector measurement (after one warm-up
            epoch that compiles the model and primes the delta state).
        python_epochs: Timed epochs for the python reference column
            (capped at large sizes so the sweep stays bounded).
        churn: Fraction of links whose counters moved each epoch.
        python_ms: Best per-epoch wall-clock of the per-entity
            reference units (``backend="python"``).
        vector_ms: Best mean per-epoch wall-clock of
            ``backend="vector"`` on the identical epoch stream.
        p99_ms: Per-epoch p99 latency of the best vector repetition
            (nearest-rank over its timed epochs).
        speedup: ``python_ms / vector_ms``.
        epochs_per_s: Sustained vector throughput, ``1000/vector_ms``.
        reuse_rate: Fraction of per-entity-equivalent units the vector
            run served from its delta state.
    """

    nodes: int
    links: int
    epochs: int
    python_epochs: int
    churn: float
    python_ms: float
    vector_ms: float
    p99_ms: float
    speedup: float
    epochs_per_s: float
    reuse_rate: float


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

    def _sparse_epoch_fixture(self, size: int):
        """A WAN-shaped fixture that stays buildable at 1000 nodes.

        The dense fixture's gravity demand routes O(N^2) commodities
        through the ground-truth simulator, which dwarfs validation
        itself past ~100 nodes.  Here the Waxman attachment probability
        is scaled inversely with size so mean degree stays at the
        80-node fixture's level (real WANs do not densify
        quadratically), and each router offers demand to its next two
        name-order successors -- O(N) commodities to route, while the
        snapshot keeps the full per-entity surface (every link still
        carries counters, statuses, probes, and drains) that validation
        actually prices.
        """
        alpha = min(0.6, 0.6 * 80.0 / size)
        topology = waxman_topology(size, alpha=alpha, seed=self._seed)
        nodes = topology.node_names()
        demand = DemandMatrix(nodes)
        for i, src in enumerate(nodes):
            for step in (1, 2):
                demand[src, nodes[(i + step) % len(nodes)]] = 2.0 + (i % 5)
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

    def run_stream(
        self,
        sizes: Sequence[int] = (20, 80),
        epochs: int = 50,
        churn: float = 0.10,
        reorder: float = 0.10,
        drop: float = 0.01,
        duplicate: float = 0.02,
        export_dir: Optional[str] = None,
    ):
        """E15: sustained streamed ingestion under churn and delivery
        perturbations.

        For each size, streams ``epochs`` churned epochs through the
        full stack -- perturbed per-router feeds, bounded-queue ingest,
        watermark assembly, live engine -- and reports sustained
        throughput plus assembly-latency percentiles (see
        :func:`repro.stream.soak.run_soak`).  One pass per size: a soak
        is its own repetition.

        Args:
            sizes: Node counts to measure.
            epochs: Epochs streamed per size.
            churn: Per-link probability of moving each epoch.
            reorder: Per-delivery in-window reorder probability.
            drop: Per-delivery source-drop probability.
            duplicate: Per-delivery duplication probability.
            export_dir: When given, the largest size's Prometheus
                exposition is written there as ``E15_metrics.prom`` so
                CI archives a real artifact.

        Returns:
            One :class:`repro.stream.soak.SoakResult` per size.
        """
        from repro.stream import Perturbations, SoakConfig, run_soak

        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        rows = []
        for size in sizes:
            rows.append(
                run_soak(
                    SoakConfig(
                        nodes=size,
                        epochs=epochs,
                        seed=self._seed,
                        churn=churn,
                        perturb=Perturbations(
                            reorder=reorder, drop=drop, duplicate=duplicate
                        ),
                    )
                )
            )
        if export_dir is not None:
            rows[-1].metrics.write(f"{export_dir}/E15_metrics.prom")
        return rows

    def run_vector(
        self,
        sizes: Sequence[int] = (20, 40, 80),
        epochs: int = 10,
        churn: float = 0.10,
        python_epochs: Optional[int] = None,
        fixture: str = "dense",
    ) -> List[VectorRow]:
        """E17: the array-compiled backend vs the per-entity units.

        Both backends replay the identical churned epoch stream (one
        warm-up epoch that, for the vector engine, also compiles the
        topology model; then the timed epochs).  The differential
        harness in ``tests/engine/test_vector.py`` separately proves
        the reports identical, so this measures pure cost.  The python
        column can be capped to fewer epochs at large sizes -- its
        per-epoch cost is what is being priced, not its endurance.

        Args:
            sizes: Node counts to measure.
            epochs: Timed epochs per vector measurement.
            churn: Per-link probability of moving each epoch.  Zero
                means the E9 workload -- the identical snapshot object
                replayed every epoch -- where the vector backend's
                wholesale short-circuit does the least work and the
                python backend still recomputes everything.
            python_epochs: Timed epochs for the python reference run
                (defaults to ``epochs``).
            fixture: ``"dense"`` (the E9 gravity fixture) or
                ``"sparse"`` (the bounded-degree, O(N)-commodity
                fixture for the 200/500/1000 sweep -- see
                :meth:`_sparse_epoch_fixture`).
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        ref_epochs = epochs if python_epochs is None else python_epochs
        if ref_epochs < 1:
            raise ValueError(f"python_epochs must be >= 1, got {ref_epochs}")
        if fixture not in ("dense", "sparse"):
            raise ValueError(f"fixture must be 'dense' or 'sparse', got {fixture!r}")
        build = (
            self._epoch_fixture if fixture == "dense" else self._sparse_epoch_fixture
        )
        rows = []
        for size in sizes:
            topology, snapshot, inputs = build(size)
            rng = random.Random(self._seed)
            snapshots = [snapshot]
            for epoch in range(1, epochs + 1):
                snapshots.append(
                    snapshot
                    if churn <= 0.0
                    else churn_snapshot(snapshots[-1], churn, rng, float(epoch))
                )

            python_ms = float("inf")
            for _ in range(self._repetitions):
                engine = ValidationEngine(topology)
                engine.validate(snapshots[0], inputs)  # warm-up
                start = time.perf_counter()
                for snap in snapshots[1 : ref_epochs + 1]:
                    engine.validate(snap, inputs)
                python_ms = min(
                    python_ms,
                    (time.perf_counter() - start) * 1000 / ref_epochs,
                )

            vector_ms = float("inf")
            best_latencies: List[float] = []
            reuse_rate = 0.0
            for _ in range(self._repetitions):
                engine = ValidationEngine(topology, backend="vector")
                engine.validate(snapshots[0], inputs)  # warm-up + compile
                latencies = []
                for snap in snapshots[1:]:
                    start = time.perf_counter()
                    engine.validate(snap, inputs)
                    latencies.append((time.perf_counter() - start) * 1000)
                mean = sum(latencies) / epochs
                if mean < vector_ms:
                    vector_ms = mean
                    best_latencies = sorted(latencies)
                    reuse_rate = engine.stats.reuse_rate()
            p99_index = max(1, -(-99 * len(best_latencies) // 100)) - 1
            rows.append(
                VectorRow(
                    nodes=topology.num_nodes,
                    links=topology.num_links,
                    epochs=epochs,
                    python_epochs=ref_epochs,
                    churn=churn,
                    python_ms=python_ms,
                    vector_ms=vector_ms,
                    p99_ms=best_latencies[p99_index],
                    speedup=python_ms / vector_ms if vector_ms else 0.0,
                    epochs_per_s=1000.0 / vector_ms if vector_ms else 0.0,
                    reuse_rate=reuse_rate,
                )
            )
        return rows

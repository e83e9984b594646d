"""The always-on validation engine.

:class:`ValidationEngine` is the long-lived counterpart to
constructing a fresh :class:`~repro.core.pipeline.Hodor` per epoch.
It keeps three things alive across validation passes:

1. A :class:`~repro.engine.cache.TopologyCacheStore`, so every epoch
   on an unchanged topology reuses the memoized topology-derived
   structures (directed-edge order, incidence maps, conservation
   equation blocks) instead of rebuilding them.
2. On the vector backend, one delta-aware
   :class:`~repro.core.vector.VectorValidator` per topology, so an
   epoch's cost tracks how much of the network moved.  Its reports are
   *identical* to the serial path's -- the differential harness in
   ``tests/engine`` asserts this verdict for verdict.
3. :class:`~repro.engine.stats.EngineStats` counters: epochs, cache
   hits/misses, per-stage wall time, entity reuse.

An epoch enters through :meth:`ValidationEngine.validate` (a snapshot:
batch replay) or :meth:`ValidationEngine.validate_events` (the sorted
event buffer a stream assembler seals).  The engine holds no OS
resources, so there is nothing to close: it goes with its last
reference, and an attached history sink is closed by whoever opened it.

Example:
    >>> from repro.engine import ValidationEngine
    >>> engine = ValidationEngine(topology, backend="vector")
    >>> for epoch in timeline:
    ...     report = engine.validate(epoch.snapshot, epoch.inputs)
    >>> engine.stats.cache_hits   # doctest: +SKIP
    len(timeline) - 1
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.vector import VectorValidator
    from repro.history.sink import HistorySink

from repro.control.inputs import ControllerInputs
from repro.core.collection import SignalCollector
from repro.core.config import HodorConfig
from repro.core.demand_check import DemandChecker
from repro.core.drain_check import DrainChecker
from repro.core.hardening import Hardener
from repro.core.pipeline import Hodor
from repro.core.report import ValidationReport
from repro.core.topology_check import TopologyChecker
from repro.engine.cache import TopologyCache, TopologyCacheStore, VectorModelStore
from repro.engine.stats import STAGES, EngineStats
from repro.net.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer
from repro.telemetry.snapshot import NetworkSnapshot

__all__ = ["EpochInput", "ValidationEngine"]


@dataclass
class EpochInput:
    """One epoch of work for :meth:`ValidationEngine.replay`.

    Attributes:
        snapshot: The telemetry snapshot for this epoch.
        inputs: The controller inputs produced for this epoch.
        topology: Optional reference-topology override; ``None`` means
            the engine's configured reference.  Passing the changed
            topology here is how a live deployment rolls a topology
            update through the engine (the cache store handles
            invalidation transparently).
    """

    snapshot: NetworkSnapshot
    inputs: ControllerInputs
    topology: Optional[Topology] = None


class _Components:
    """The per-topology pipeline components, built once per cache."""

    __slots__ = ("collector", "hardener", "demand", "topology", "drain")

    def __init__(
        self, reference: Topology, config: HodorConfig, cache: TopologyCache
    ) -> None:
        self.collector = SignalCollector(config)
        self.hardener = Hardener(reference, config, cache=cache)
        self.demand = DemandChecker(config, cache=cache)
        self.topology = TopologyChecker(config)
        self.drain = DrainChecker(config, cache=cache)


class ValidationEngine:
    """Streaming multi-epoch validation with caching.

    Args:
        reference: The design-time network model epochs default to.
        config: Thresholds and options; defaults follow the paper.
        cache_store: Optional shared topology-cache store; one is
            created when omitted.  Sharing a store across engines
            shares the memoized topology structures.
        backend: ``"vector"`` evaluates epochs on the array-compiled
            topology model (see :mod:`repro.core.vector`), reusing every
            per-entity result whose inputs did not move -- the
            production path.  ``"python"`` runs the serial per-entity
            units from scratch every epoch -- the reference.  Both
            produce identical reports (the differential harness and the
            fuzz oracle enforce this).
        tracer: Optional :class:`repro.obs.trace.Tracer`.  When given,
            every epoch records a span tree (epoch -> stage, plus
            per-verdict provenance instants).  Defaults to the
            allocation-free :class:`~repro.obs.trace.NullTracer`.
        metrics: Optional shared
            :class:`repro.obs.metrics.MetricsRegistry` to record the
            epoch/stage latency histograms into; one is created when
            omitted (exposed as :attr:`metrics`).
        history: Optional :class:`repro.history.sink.HistorySink`;
            every validated epoch is written through to it (durable
            verdict history).  The engine never owns the sink -- the
            caller closes it.  Attach a sink to either the engine or
            the stream pipeline, not both, or epochs record twice.
    """

    _BACKENDS = ("python", "vector")

    def __init__(
        self,
        reference: Topology,
        config: Optional[HodorConfig] = None,
        cache_store: Optional[TopologyCacheStore] = None,
        backend: str = "python",
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        history: Optional["HistorySink"] = None,
    ) -> None:
        if backend not in self._BACKENDS:
            raise ValueError(
                f"unknown engine backend {backend!r}; expected one of {self._BACKENDS}"
            )
        self._reference = reference
        self._config = config or HodorConfig()
        self._store = cache_store or TopologyCacheStore()
        self._backend = backend
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._epoch_hist = self.metrics.histogram(
            "engine_epoch_latency_seconds",
            "Wall-clock seconds per validation epoch.",
        )
        self._stage_hist = self.metrics.histogram(
            "engine_stage_latency_seconds",
            "Wall-clock seconds per pipeline stage per epoch.",
            labels=("stage",),
        )
        self.history = history
        self.stats = EngineStats(backend=backend)
        self._components: "OrderedDict[str, _Components]" = OrderedDict()
        self._validators: "OrderedDict[str, VectorValidator]" = OrderedDict()
        self._model_store = VectorModelStore()
        self._max_component_sets = 32
        self._folder = None

    @property
    def config(self) -> HodorConfig:
        return self._config

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def cache_store(self) -> TopologyCacheStore:
        return self._store

    # ------------------------------------------------------------------

    def _components_for(
        self, reference: Topology
    ) -> Tuple[TopologyCache, _Components]:
        """Cache lookup plus per-fingerprint component reuse."""
        hits_before = self._store.hits
        cache = self._store.get(reference)
        if self._store.hits > hits_before:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1

        components = self._components.get(cache.fingerprint)
        if components is None:
            components = _Components(reference, self._config, cache)
            self._components[cache.fingerprint] = components
            while len(self._components) > self._max_component_sets:
                evicted, _ = self._components.popitem(last=False)
                self._validators.pop(evicted, None)
        else:
            self._components.move_to_end(cache.fingerprint)
        return cache, components

    def _validator_for(
        self, cache: TopologyCache, components: _Components
    ) -> "VectorValidator":
        """The vector backend's stateful validator, one per topology
        fingerprint.  Its compiled :class:`VectorModel` is shared through
        :class:`~repro.engine.cache.VectorModelStore` and survives
        validator eviction."""
        validator = self._validators.get(cache.fingerprint)
        if validator is not None:
            self._validators.move_to_end(cache.fingerprint)
            return validator
        # Imported on first use: the python backend never loads scipy.
        from repro.core.vector import VectorValidator

        validator = VectorValidator(
            self._config,
            cache,
            components,
            self.stats,
            tracer=self.tracer,
            model=self._model_store.get(cache),
        )
        self._validators[cache.fingerprint] = validator
        return validator

    def validate(
        self,
        snapshot: NetworkSnapshot,
        inputs: ControllerInputs,
        topology: Optional[Topology] = None,
    ) -> ValidationReport:
        """Validate one epoch; identical output to ``Hodor.validate``.

        Args:
            snapshot: The telemetry snapshot for this epoch.
            inputs: The controller inputs under validation.
            topology: Optional reference override for this epoch.
        """

        def run(cache: TopologyCache, components: _Components) -> ValidationReport:
            if self._backend == "vector":
                return self._validator_for(cache, components).validate(snapshot, inputs)
            return self._validate_serial(components, snapshot, inputs)

        return self._epoch(snapshot.timestamp, topology, run)

    def validate_events(
        self,
        events,
        timestamp: float,
        inputs: ControllerInputs,
        topology: Optional[Topology] = None,
    ) -> ValidationReport:
        """Validate one sealed epoch directly from its update events.

        The stream's entry point: every epoch the
        :class:`~repro.stream.assembler.EpochAssembler` seals arrives as
        a sorted event buffer.  The vector backend scatters it straight
        into its slot arrays (no snapshot is built; its collect stage is
        the pack from events).  The python backend folds it through a
        persistent :class:`~repro.stream.fold.EventFolder` -- the
        reference codec, one regex decode per *distinct* path for the
        engine's lifetime -- and validates the folded snapshot with
        :meth:`validate`.

        Either way the report -- findings, verdicts, and provenance --
        is byte-identical to :meth:`validate` on the snapshot the events
        describe; the stream differential in ``tests/stream`` enforces
        this on both backends.

        Args:
            events: Deduped deliveries in sorted ``(router, uid)`` seal
                order (``AssembledEpoch.events``).
            timestamp: The epoch's collection instant.
            inputs: The controller inputs under validation.
            topology: Optional reference override for this epoch.
        """
        if self._backend != "vector":
            if self._folder is None:
                from repro.stream.fold import EventFolder

                self._folder = EventFolder()
            snapshot = self._folder.fold(events, timestamp)
            return self.validate(snapshot, inputs, topology=topology)
        return self._epoch(
            timestamp,
            topology,
            lambda cache, components: self._validator_for(cache, components).validate_events(
                events, timestamp, inputs
            ),
        )

    def _epoch(
        self,
        timestamp: float,
        topology: Optional[Topology],
        run: Callable[[TopologyCache, _Components], ValidationReport],
    ) -> ValidationReport:
        """What every epoch shares, whichever way it came in: the epoch
        span, the topology-cache lookup, and -- around ``run``, which
        produces the report and records its own stage seconds -- the
        counters, latency histograms, verdict instants and history write."""
        reference = topology if topology is not None else self._reference
        tracer = self.tracer
        with tracer.span("epoch", epoch=self.stats.epochs, timestamp=timestamp) as epoch_span:
            total_start = time.perf_counter()
            hits_before = self.stats.cache_hits
            cache, components = self._components_for(reference)
            if tracer.enabled:
                epoch_span.annotate(cache_hit=self.stats.cache_hits > hits_before)
            stage_before = {
                stage: self.stats.stage_seconds.get(stage, 0.0) for stage in STAGES
            }
            report = run(cache, components)
            self.stats.epochs += 1
            total_seconds = time.perf_counter() - total_start
            self.stats.record_stage("total", total_seconds)
            self._epoch_hist.observe(total_seconds)
            for stage in STAGES:
                self._stage_hist.labels(stage=stage).observe(
                    self.stats.stage_seconds.get(stage, 0.0) - stage_before[stage]
                )
            self._emit_verdicts(report)
            self._record_history(report, total_seconds)
        return report

    def _validate_serial(
        self, components: _Components, snapshot: NetworkSnapshot, inputs: ControllerInputs
    ) -> ValidationReport:
        """The serial per-entity pipeline, every stage from scratch."""
        tracer = self.tracer
        stage_start = time.perf_counter()
        with tracer.span("collect", category="stage"):
            collected = components.collector.collect(snapshot)
        self.stats.record_stage("collect", time.perf_counter() - stage_start)

        stage_start = time.perf_counter()
        with tracer.span("harden", category="stage"):
            hardened = components.hardener.harden(collected)
        self.stats.record_stage("harden", time.perf_counter() - stage_start)

        stage_start = time.perf_counter()
        report = ValidationReport(timestamp=snapshot.timestamp, hardened=hardened)
        with tracer.span("check", category="stage"):
            Hodor._record(report, components.demand.check(inputs.demand, hardened))
            Hodor._record(report, components.topology.check(inputs.topology, hardened))
            Hodor._record(report, components.drain.check(inputs.drains, hardened))
        self.stats.record_stage("check", time.perf_counter() - stage_start)
        return report

    def _record_history(self, report: ValidationReport, elapsed_s: float) -> None:
        """Write one validated epoch through the attached history sink."""
        if self.history is None:
            return
        self.history.record(
            report,
            source="engine",
            backend=self._backend,
            sealed_by="batch",
            elapsed_s=elapsed_s,
            stats=self.stats,
        )

    def _emit_verdicts(self, report: ValidationReport) -> None:
        """Emit one provenance instant per verdict (tracing only)."""
        if not self.tracer.enabled:
            return
        for name in sorted(report.provenance):
            record = report.provenance[name]
            self.tracer.instant(
                "verdict", input=name, valid=record.valid, provenance=record.to_dict()
            )

    def replay(self, epochs: Iterable[EpochInput]) -> List[ValidationReport]:
        """Validate a whole epoch stream, in order."""
        return [
            self.validate(epoch.snapshot, epoch.inputs, topology=epoch.topology)
            for epoch in epochs
        ]

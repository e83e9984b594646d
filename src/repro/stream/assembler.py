"""Watermark-driven epoch assembly from per-router update streams.

:class:`EpochAssembler` turns an interleaved stream of
:class:`~repro.stream.events.UpdateEvent` deliveries back into
per-epoch sorted event buffers the validation engine consumes
(:meth:`~repro.engine.ValidationEngine.validate_events`), using the
classic streaming low-watermark discipline:

* every delivery advances its router's **progress** (the running max
  of ``emit_ts`` seen from that feed -- feeds deliver in emit order,
  so progress is that feed's event-time frontier);
* the assembler's **low watermark** is the minimum progress over all
  expected routers that have not finished;
* an epoch with timestamp ``T`` **seals** once the watermark passes
  ``T + lateness_s``: no punctual feed can still deliver for it.

Until it seals, an epoch buffers deliveries keyed by ``(router, uid)``
-- which both dedupes duplicated deliveries and makes the sealed epoch
independent of arrival interleaving: at seal time the buffer is
emitted in sorted key order.  (The buffer is one ``uid`` dict per
router, so a delivery allocates no key tuple of its own.)  A delivery
for an already-sealed epoch is *late*: counted and dropped, never
applied (a late write mutating history would desynchronise the
engine's delta state).

Sealed epochs are **partial** when some expected router contributed
nothing: its signals are simply absent from the epoch, which
Hodor's collection layer already treats as unknowns -- never zeros --
so partial epochs flow through validation with no special casing.  The
per-router coverage map on :class:`AssembledEpoch` records exactly who
was missing.

The assembler is single-threaded and synchronous; the asyncio ingest
layer (:mod:`repro.stream.ingest`) owns concurrency and calls into it
from one consumer task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.clock import monotonic_clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer
from repro.stream.events import UpdateEvent

__all__ = ["AssembledEpoch", "EpochAssembler"]

#: Histogram buckets for assembly latency (seconds, real time).
ASSEMBLY_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@dataclass(frozen=True)
class AssembledEpoch:
    """One sealed epoch: its sorted event buffer plus its coverage record.

    Attributes:
        timestamp: The epoch's collection instant (snapshot timestamp).
        snapshot: Always ``None``: the assembler seals events, not
            snapshots.  ``bench/sut.py::batch_epoch`` builds an epoch
            with ``snapshot=None``; the field is kept only for that
            call; ROADMAP 1A(d) deletes both.
        coverage: Sealed-update count per contributing router.
        expected: Every router the assembler expected to hear from.
        missing: Expected routers that contributed nothing (sorted).
        complete: ``True`` when no expected router is missing.
        sealed_by: ``"watermark"`` (the normal path) or ``"drain"``
            (sealed during shutdown before the watermark passed).
        updates: Distinct updates sealed into the epoch.
        duplicates: Duplicate deliveries suppressed for this epoch.
        assembly_latency_s: Real seconds from the epoch's first
            buffered delivery to seal.
        events: The deduped deliveries in sorted ``(router, uid)``
            seal order; :class:`~repro.stream.fold.EventFolder` folds
            them into the snapshot they describe.
    """

    timestamp: float
    snapshot: None = field(repr=False)
    coverage: Dict[str, int] = field(repr=False)
    expected: Tuple[str, ...] = field(repr=False)
    missing: Tuple[str, ...]
    complete: bool
    sealed_by: str
    updates: int
    duplicates: int
    assembly_latency_s: float
    events: Tuple[UpdateEvent, ...] = field(default=(), repr=False)


@dataclass
class _OpenEpoch:
    """Buffer state for one not-yet-sealed epoch."""

    first_at: float
    #: Deduped deliveries: router -> uid -> event.
    events: Dict[str, Dict[int, UpdateEvent]] = field(default_factory=dict)
    duplicates: int = 0


class EpochAssembler:
    """Buckets update deliveries into watermark-sealed epochs.

    Args:
        routers: The routers expected to report each epoch.  The low
            watermark is taken over this set, so a router outside it
            can contribute updates but never holds sealing back.
        lateness_s: How far past an epoch's timestamp the watermark
            must move before that epoch seals.  Larger values tolerate
            more reordering at the cost of assembly latency.
        metrics: Optional shared registry for the ``stream_*``
            families; one is created when omitted.
        tracer: Optional tracer; each seal records an ``assemble``
            span.  Defaults to the no-op tracer.
        clock: Monotonic seconds source for assembly latency; defaults
            to :func:`repro.obs.clock.monotonic_clock`.
    """

    def __init__(
        self,
        routers: Sequence[str],
        lateness_s: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        clock=None,
    ) -> None:
        if lateness_s < 0.0:
            raise ValueError(f"lateness_s must be >= 0, got {lateness_s!r}")
        self.expected: Tuple[str, ...] = tuple(sorted(set(routers)))
        self.lateness_s = lateness_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()
        self._clock = clock if clock is not None else monotonic_clock
        self._open: Dict[float, _OpenEpoch] = {}
        self._sealed_ts: set = set()
        self._progress: Dict[str, float] = {r: float("-inf") for r in self.expected}
        self._done: set = set()
        # Cached low watermark and one live router whose progress equals
        # it.  The minimum can only move when that router advances or
        # finishes, so nothing else recomputes it.
        self._watermark = float("-inf")
        self._holder: Optional[str] = None
        self._refresh_watermark()
        self.late_dropped = 0
        self.duplicates = 0
        self.updates = 0
        self._updates_total = self.metrics.counter(
            "stream_updates_total",
            "Telemetry update deliveries offered to the epoch assembler.",
        )
        self._late_total = self.metrics.counter(
            "stream_late_updates_total",
            "Deliveries that arrived after their epoch sealed (dropped).",
        )
        self._dup_total = self.metrics.counter(
            "stream_duplicate_updates_total",
            "Duplicate deliveries suppressed by (router, uid) dedupe.",
        )
        self._epochs_total = self.metrics.counter(
            "stream_epochs_sealed_total",
            "Epochs sealed by the assembler, by completeness.",
            labels=("result",),
        )
        self._open_gauge = self.metrics.gauge(
            "stream_open_epochs",
            "Epochs currently buffering in the assembler.",
        )
        self._latency_hist = self.metrics.histogram(
            "stream_assembly_latency_seconds",
            "Real seconds from an epoch's first delivery to seal.",
            buckets=ASSEMBLY_LATENCY_BUCKETS,
        )
        # Touch the unlabelled families so a zero value still exposes a
        # sample line (dashboards expect the series to exist from boot).
        for counter in (self._updates_total, self._late_total, self._dup_total):
            counter.inc(0.0)
        self._open_gauge.set(0.0)

    # ------------------------------------------------------------------

    @property
    def open_epochs(self) -> int:
        return len(self._open)

    def watermark(self) -> float:
        """Low watermark: min event-time frontier over live routers."""
        return self._watermark

    def _refresh_watermark(self) -> None:
        progress = self._progress
        live = [r for r in self.expected if r not in self._done]
        self._holder = min(live, key=progress.__getitem__) if live else None
        self._watermark = progress[self._holder] if live else float("inf")

    def offer(self, event: UpdateEvent) -> List[AssembledEpoch]:
        """Buffer one delivery; return any epochs it caused to seal."""
        self.updates += 1
        self._updates_total.inc()
        router = event.router
        scan = False
        if event.epoch_ts in self._sealed_ts:
            self.late_dropped += 1
            self._late_total.inc()
        else:
            state = self._open.get(event.epoch_ts)
            if state is None:
                state = self._open[event.epoch_ts] = _OpenEpoch(first_at=self._clock())
                self._open_gauge.set(float(len(self._open)))
                scan = True
            bucket = state.events.get(router)
            if bucket is None:
                bucket = state.events[router] = {}
            if event.uid in bucket:
                state.duplicates += 1
                self.duplicates += 1
                self._dup_total.inc()
            else:
                bucket[event.uid] = event
        if router in self._progress and event.emit_ts > self._progress[router]:
            self._progress[router] = event.emit_ts
            if router == self._holder:
                self._refresh_watermark()
                scan = True
        # Every epoch the watermark has passed was sealed by the call
        # that moved it, so only a moved watermark or an epoch opened
        # behind it can leave something to seal.
        return self._seal_ready() if scan else []

    def mark_done(self, router: str) -> List[AssembledEpoch]:
        """A feed finished (or was abandoned): stop waiting for it."""
        self._done.add(router)
        if router != self._holder:
            return []
        self._refresh_watermark()
        return self._seal_ready()

    def drain(self) -> List[AssembledEpoch]:
        """Seal every open epoch in timestamp order (shutdown path)."""
        return [self._seal(ts, "drain") for ts in sorted(self._open)]

    # ------------------------------------------------------------------

    def _seal_ready(self) -> List[AssembledEpoch]:
        wm = self._watermark
        sealed: List[AssembledEpoch] = []
        for ts in sorted(self._open):
            if ts + self.lateness_s <= wm:
                sealed.append(self._seal(ts, "watermark"))
            else:
                break
        return sealed

    def _seal(self, timestamp: float, sealed_by: str) -> AssembledEpoch:
        state = self._open.pop(timestamp)
        self._sealed_ts.add(timestamp)
        self._open_gauge.set(float(len(self._open)))
        latency = self._clock() - state.first_at
        with self.tracer.span(
            "assemble", category="stream", timestamp=timestamp, sealed_by=sealed_by
        ) as span:
            buckets = sorted(state.events.items())  # router names are unique
            ordered = tuple(
                bucket[uid] for _router, bucket in buckets for uid in sorted(bucket)
            )
            coverage = {router: len(bucket) for router, bucket in buckets}
            missing = tuple(r for r in self.expected if r not in coverage)
            span.annotate(
                updates=len(ordered),
                duplicates=state.duplicates,
                missing=len(missing),
            )
        complete = not missing
        self._epochs_total.labels(result="complete" if complete else "partial").inc()
        self._latency_hist.observe(latency)
        return AssembledEpoch(
            timestamp=timestamp,
            snapshot=None,
            coverage=coverage,
            expected=self.expected,
            missing=missing,
            complete=complete,
            sealed_by=sealed_by,
            updates=len(ordered),
            duplicates=state.duplicates,
            assembly_latency_s=latency,
            events=ordered,
        )

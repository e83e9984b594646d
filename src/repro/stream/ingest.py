"""Asyncio ingestion: feeds -> bounded queue -> assembler -> engine.

:class:`StreamPipeline` is the always-on wiring the paper's Section
3.2 deployment model implies: one producer merges the per-router feeds
into one bounded queue; a single consumer drains it into the
:class:`~repro.stream.assembler.EpochAssembler`; every epoch the
assembler seals is validated immediately by a
:class:`~repro.engine.ValidationEngine` (either backend -- the
pipeline does not care).

Design points:

* **One merged producer, blocking on a full queue.**  The producer
  merges every feed in ``(emit_ts, router, uid)`` order, so the queue
  sequence -- and therefore every counter -- is reproducible run to
  run.  When the queue is full the producer waits: a slow validator
  throttles the feeds and ingest latency absorbs the pressure, visible
  in ``stream_queue_depth``.  Ingest never discards a delivery, because
  missing telemetry is exactly the input the validator exists to flag;
  shedding it here would manufacture the fault being looked for.
* **No await on a hop that cannot block.**  ``asyncio.Queue.put``/
  ``get`` suspend only on a full/empty queue, so the producer and the
  consumer use ``put_nowait``/``get_nowait`` and fall back to the
  awaiting form exactly there -- the same scheduling, without a
  coroutine frame per delivery.  ``stream_queue_depth`` is sampled at
  those boundaries (where a task actually parks) and at the end of
  the run, not per delivery.
* **Collector paused from seal to verdict.**  With nothing allocated
  per delivery, the cyclic collector is only ever triggered by fold +
  validate; it is disabled for that synchronous call (and restored to
  what the caller had) so its aging passes run after the verdict is
  stamped, not inside the latency the operator reads.
* **Retry with backoff.**  A delivery attempt that raises
  :class:`~repro.stream.events.FeedError` is retried with exponential
  backoff up to ``max_retries``; a feed that keeps failing is
  abandoned and marked done, so the watermark stops waiting for it
  (its epochs seal partial rather than never).
* **Ordered completion.**  A feed's end-of-stream marker travels
  through the same queue *behind* its deliveries, so the assembler
  never learns a feed is done while that feed's updates are still
  queued.  The producer's terminal marker is its very last put, and
  the consumer stops when it dequeues it -- so shutdown is itself
  ordered through the queue and cannot race a done-marker that is
  written but not yet enqueued.
* **Run-scoped state.**  Queue, counters, and the result object live
  in a per-run ``_RunState`` passed explicitly to every coroutine;
  the pipeline object holds no mutable run state, so overlapping
  ``run_async()`` calls cannot interfere.
* **Graceful drain.**  After the producer finishes, the consumer
  drains the assembler, sealing whatever the watermark could not (the
  final epochs of any bounded run).

The event-loop clock is read through
:func:`repro.obs.clock.event_loop_time` -- the sanctioned seam --
keeping this module hodor-lint D1-clean.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs.clock import event_loop_time
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer
from repro.stream.assembler import AssembledEpoch, EpochAssembler
from repro.stream.events import FeedError, UpdateEvent
from repro.stream.feed import RouterFeed

__all__ = ["IngestConfig", "StreamResult", "StreamPipeline"]


@dataclass(frozen=True)
class _FeedDone:
    """In-band end-of-stream marker for one feed.

    ``terminal`` marks the producer exiting (its very last put), and
    the consumer stops when it dequeues it.  That is the only
    termination signal that cannot race: FIFO order guarantees every
    event and done-marker the producer enqueued travels ahead of it.
    A "producer finished" flag or counter set *beside* the queue can
    read finished while a woken-but-unscheduled put still holds the
    final done-marker, and a consumer scheduled inside that window
    sees an empty queue and shuts down without processing it.
    """

    router: str
    terminal: bool = False


@dataclass
class _RunState:
    """Mutable state owned by exactly one ``run_async()`` call.

    The producer and the consumer share this object through explicit
    parameters instead of pipeline attributes, so one pipeline can
    never bleed counters or queue items across overlapping runs, and
    hodor-lint A2 can verify no instance state straddles an ``await``.
    """

    queue: asyncio.Queue
    result: StreamResult
    retries: int = 0
    abandoned: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class IngestConfig:
    """Tuning for the ingestion pipeline.

    Attributes:
        queue_size: Bound on the delivery queue; the producer waits
            while it is full.
        max_retries: Failed attempts before a feed is abandoned.
        backoff_base_s: First retry delay; doubles per attempt.
    """

    queue_size: int = 256
    max_retries: int = 3
    backoff_base_s: float = 0.005

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {self.queue_size}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass
class StreamResult:
    """Everything one pipeline run produced, in seal order.

    The per-epoch lists stay out of ``repr()``: it is a one-line
    summary of the counters, however long the run (``asyncio.run``
    formats the result it returns, so a repr that walked every sealed
    event was paid on every :meth:`StreamPipeline.run`).

    Attributes:
        epochs: Sealed epochs, ascending timestamp.
        reports: One validation report per sealed epoch (aligned).
        updates: Deliveries offered to the assembler.
        late_dropped: Deliveries that missed their epoch's seal.
        duplicates: Duplicate deliveries suppressed.
        retries: Feed delivery attempts that were retried.
        abandoned: Feeds given up on after exhausting retries.
        epoch_latency_s: Per-epoch seconds from seal to validated,
            on the event-loop clock (aligned with ``epochs``).
        shed_epochs: Sealed epochs the admission gate declined to
            validate (graceful degradation; never recorded in
            ``epochs``/``reports``).
    """

    epochs: List[AssembledEpoch] = field(default_factory=list, repr=False)
    reports: List[object] = field(default_factory=list, repr=False)
    updates: int = 0
    late_dropped: int = 0
    duplicates: int = 0
    retries: int = 0
    abandoned: Tuple[str, ...] = ()
    epoch_latency_s: List[float] = field(default_factory=list, repr=False)
    shed_epochs: int = 0

    @property
    def complete_epochs(self) -> int:
        return sum(1 for epoch in self.epochs if epoch.complete)

    @property
    def partial_epochs(self) -> int:
        return sum(1 for epoch in self.epochs if not epoch.complete)


@contextlib.contextmanager
def _collector_paused():
    """Keep the cyclic collector's passes out of seal-to-verdict.

    Ingest allocates nothing that survives a delivery, so the
    collector's thresholds are only ever tripped by fold + validate:
    without this, the aging of everything the *previous* epoch left
    behind (its report, the open epochs' buffers) is paid between an
    epoch's seal and its verdict.  Validation is synchronous -- no
    other task runs inside the bracket -- and what it allocates is
    collected at the first allocation after the verdict is stamped.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class StreamPipeline:
    """Drives feeds through assembly into the validation engine.

    Args:
        feeds: The per-router feeds to ingest (exhausted by a run).
        assembler: The epoch assembler; its expected-router set should
            cover the feeds or sealing will not wait for them.
        engine: A :class:`~repro.engine.ValidationEngine` (either
            mode); called synchronously as epochs seal, so engine
            latency is the pipeline's natural backpressure source.
        inputs_for: Controller inputs per epoch -- a callable taking
            the epoch timestamp, or a mapping keyed by it.
        config: Queue bound and retry tuning.
        metrics: Optional shared registry (pass the same one given to
            the assembler and engine for a single exposition).
        tracer: Optional tracer; each validated epoch records a
            ``stream.epoch`` span.
        history: Optional :class:`repro.history.sink.HistorySink`;
            every sealed-and-validated epoch is written through with
            its assembly coverage and seal-to-verdict latency.  The
            pipeline never owns the sink -- the caller closes it.
            Attach a sink to either the pipeline or the engine, not
            both, or epochs record twice.
        gate: Optional admission callback: ``gate(epoch) -> bool``
            runs before each sealed epoch is validated; returning
            ``False`` *sheds* the epoch (skipped entirely, counted in
            ``StreamResult.shed_epochs``).  The fleet layer uses this
            for graceful degradation -- shedding partial-epoch sealing
            under overload before healthy tenants starve.
        on_epoch: Optional observer: ``on_epoch(epoch, report,
            latency_s)`` runs after each epoch validates (and after
            any history write-through).  The fleet worker streams
            per-epoch verdict digests through this seam.
    """

    def __init__(
        self,
        feeds: Sequence[RouterFeed],
        assembler: EpochAssembler,
        engine,
        inputs_for,
        config: Optional[IngestConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        history=None,
        gate=None,
        on_epoch=None,
    ) -> None:
        self._feeds = list(feeds)
        self._assembler = assembler
        self._engine = engine
        self._inputs_for = self._as_callable(inputs_for)
        self.config = config or IngestConfig()
        self.metrics = metrics if metrics is not None else assembler.metrics
        self.tracer = tracer if tracer is not None else NullTracer()
        self.history = history
        self._gate = gate
        self._on_epoch = on_epoch
        self._queue_gauge = self.metrics.gauge(
            "stream_queue_depth",
            "Deliveries waiting in the ingest queue.",
        )
        self._epochs_shed_total = self.metrics.counter(
            "stream_epochs_shed_total",
            "Sealed epochs the admission gate declined to validate.",
        )
        self._retry_total = self.metrics.counter(
            "stream_feed_retries_total",
            "Feed delivery attempts retried after a failure.",
        )
        self._abandoned_total = self.metrics.counter(
            "stream_feeds_abandoned_total",
            "Feeds abandoned after exhausting their retry budget.",
        )
        self._feed_dropped_total = self.metrics.counter(
            "stream_feed_dropped_total",
            "Deliveries the feeds themselves dropped at the source.",
        )
        for counter in (
            self._retry_total,
            self._abandoned_total,
            self._feed_dropped_total,
        ):
            counter.inc(0.0)
        self._queue_gauge.set(0.0)

    @staticmethod
    def _as_callable(inputs_for) -> Callable[[float], object]:
        if callable(inputs_for):
            return inputs_for
        return inputs_for.__getitem__

    # ------------------------------------------------------------------
    # Producer
    # ------------------------------------------------------------------

    async def _retry(self, state: _RunState, feed: RouterFeed) -> Optional[UpdateEvent]:
        """Retry a feed whose delivery attempt just raised, with
        backoff; ``None`` = exhausted or abandoned (the caller cannot
        tell, and does not need to)."""
        config = self.config
        attempts = 1
        while True:
            state.retries += 1
            self._retry_total.inc()
            if attempts > config.max_retries:
                state.abandoned.append(feed.router)
                self._abandoned_total.inc()
                return None
            await asyncio.sleep(config.backoff_base_s * (2 ** (attempts - 1)))
            try:
                return feed.next_event()
            except FeedError:
                attempts += 1

    async def _produce_merged(self, state: _RunState) -> None:
        """Merge every feed into the queue in delivery order.  Each
        feed's done-marker follows its last delivery; one terminal
        marker closes the run."""
        queue = state.queue
        try:
            heap: List[Tuple[float, str, int, int, UpdateEvent, RouterFeed]] = []
            tiebreak = 0
            # Feeds still owed their first pull, last first; once every
            # feed is primed each pull replaces the delivery just sent.
            unprimed = self._feeds[::-1]
            while unprimed or heap:
                if unprimed:
                    feed = unprimed.pop()
                else:
                    _ts, _router, _uid, _tb, event, feed = heapq.heappop(heap)
                    try:
                        queue.put_nowait(event)
                    except asyncio.QueueFull:
                        # The one place the producer parks: sample the
                        # depth gauge, then wait for space.
                        self._queue_gauge.set(float(queue.qsize()))
                        await queue.put(event)
                try:
                    event = feed.next_event()
                except FeedError:
                    event = await self._retry(state, feed)
                if event is None:
                    await queue.put(_FeedDone(feed.router))
                    continue
                tiebreak += 1
                heapq.heappush(
                    heap, (event.emit_ts, event.router, event.uid, tiebreak, event, feed)
                )
        finally:
            await queue.put(_FeedDone("", terminal=True))

    # ------------------------------------------------------------------
    # Consumer
    # ------------------------------------------------------------------

    def _validate_epoch(
        self, state: _RunState, epoch: AssembledEpoch, sealed_at: float
    ) -> None:
        result = state.result
        if self._gate is not None and not self._gate(epoch):
            result.shed_epochs += 1
            self._epochs_shed_total.inc()
            return
        inputs = self._inputs_for(epoch.timestamp)
        with self.tracer.span(
            "stream.epoch",
            category="stream",
            timestamp=epoch.timestamp,
            complete=epoch.complete,
            sealed_by=epoch.sealed_by,
        ) as span, _collector_paused():
            report = self._engine.validate_events(epoch.events, epoch.timestamp, inputs)
            span.annotate(updates=epoch.updates, missing=len(epoch.missing))
            latency = event_loop_time() - sealed_at
        result.epochs.append(epoch)
        result.reports.append(report)
        result.epoch_latency_s.append(latency)
        if self.history is not None:
            self.history.record(
                report,
                source="stream",
                backend=getattr(self._engine, "backend", "python"),
                sealed_by=epoch.sealed_by,
                complete=epoch.complete,
                updates=epoch.updates,
                missing=len(epoch.missing),
                elapsed_s=latency,
                stats=getattr(self._engine, "stats", None),
            )
        if self._on_epoch is not None:
            self._on_epoch(epoch, report, latency)

    async def _consume(self, state: _RunState) -> None:
        """Drain the queue until the producer's terminal marker.  The
        producer enqueues it last, so FIFO order means every queued
        event and done-marker has already been processed when it
        arrives -- no shared flag, no window in which a pending marker
        can be missed."""
        queue = state.queue
        assembler = self._assembler
        while True:
            # ``Queue.get`` only suspends on an empty queue; taking the
            # item directly otherwise changes no scheduling decision.
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                self._queue_gauge.set(0.0)
                item = await queue.get()
            if isinstance(item, _FeedDone):
                if item.terminal:
                    break
                sealed = assembler.mark_done(item.router)
            else:
                sealed = assembler.offer(item)
            if sealed:
                sealed_at = event_loop_time()
                for epoch in sealed:
                    self._validate_epoch(state, epoch, sealed_at)
        drained = assembler.drain()
        if drained:
            sealed_at = event_loop_time()
            for epoch in drained:
                self._validate_epoch(state, epoch, sealed_at)
        self._queue_gauge.set(float(queue.qsize()))

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    async def run_async(self) -> StreamResult:
        """Run the pipeline to completion inside a running loop."""
        state = _RunState(
            queue=asyncio.Queue(maxsize=self.config.queue_size),
            result=StreamResult(),
        )
        producer = asyncio.ensure_future(self._produce_merged(state))
        try:
            await self._consume(state)
            await producer
        finally:
            if not producer.done():
                producer.cancel()
        result = state.result
        result.updates = self._assembler.updates
        result.late_dropped = self._assembler.late_dropped
        result.duplicates = self._assembler.duplicates
        result.retries = state.retries
        result.abandoned = tuple(state.abandoned)
        feed_dropped = sum(feed.stats.dropped for feed in self._feeds)
        self._feed_dropped_total.set_to(float(feed_dropped))
        return result

    def run(self) -> StreamResult:
        """Run the pipeline on a fresh event loop (CLI/test entry)."""
        return asyncio.run(self.run_async())

"""Asyncio ingestion: feeds -> bounded queue -> assembler -> engine.

:class:`StreamPipeline` is the always-on wiring the paper's Section
3.2 deployment model implies: per-router feeds push update deliveries
into one bounded queue; a single consumer drains it into the
:class:`~repro.stream.assembler.EpochAssembler`; every epoch the
assembler seals is validated immediately by a
:class:`~repro.engine.ValidationEngine` (either backend -- the
pipeline does not care).

Design points:

* **Bounded queue + explicit backpressure.**  ``"block"`` (default)
  makes producers await queue space, so a slow validator throttles the
  feeds -- nothing is lost, ingest latency absorbs the pressure.
  ``"drop-oldest"`` sheds load instead: when the queue is full the
  oldest *event* is discarded (and counted); end-of-feed control items
  are never dropped, so sealing can never deadlock on a discarded
  notification.
* **No await on a hop that cannot block.**  ``asyncio.Queue.put``/
  ``get`` suspend only on a full/empty queue, so producers and the
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
* **Per-feed timeout + retry with backoff.**  A delivery attempt that
  raises :class:`~repro.stream.events.FeedError` or times out is
  retried with exponential backoff up to ``max_retries``; a feed that
  keeps failing is abandoned and marked done, so the watermark stops
  waiting for it (its epochs seal partial rather than never).
* **Ordered completion.**  A feed's end-of-stream marker travels
  through the same queue *behind* its deliveries, so the assembler
  never learns a feed is done while that feed's updates are still
  queued.  The consumer terminates by counting *terminal* markers --
  one per producer task, enqueued as that task's very last put -- so
  shutdown is itself ordered through the queue and cannot race a
  producer whose final marker is written but not yet enqueued.
* **Run-scoped state.**  Queue, counters, and the result object live
  in a per-run ``_RunState`` passed explicitly to every coroutine;
  the pipeline object holds no mutable run state, so overlapping
  ``run_async()`` calls cannot interfere.
* **Graceful drain.**  After every producer finishes, the consumer
  empties the queue and then drains the assembler, sealing whatever
  the watermark could not (the final epochs of any bounded run).
* **Deterministic mode.**  With ``deterministic=True`` one producer
  merges all feeds in ``(emit_ts, router, uid)`` order, making the
  queue sequence -- and therefore every counter -- reproducible run
  to run.  ``False`` runs one producer task per feed; the assembler's
  buffer-and-sort sealing keeps sealed epochs deterministic even then.

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

_BACKPRESSURE_POLICIES = ("block", "drop-oldest")


@dataclass(frozen=True)
class _FeedDone:
    """In-band end-of-stream marker for one feed (never dropped).

    ``terminal`` marks a *producer task* exiting (its very last put).
    The consumer runs until it has seen one terminal marker per
    producer task -- the only termination signal that cannot race,
    because FIFO order guarantees every event a producer enqueued
    travels ahead of its terminal marker.  (The previous design
    counted live producers in a shared integer decremented *before*
    the marker was enqueued; a consumer scheduled inside that window
    saw zero producers and an empty queue while the woken-but-
    unscheduled putter still held the final marker, and shut down
    without processing it.)
    """

    router: str
    terminal: bool = False


@dataclass
class _RunState:
    """Mutable state owned by exactly one ``run_async()`` call.

    Producers and the consumer share this object through explicit
    parameters instead of pipeline attributes, so one pipeline can
    never bleed counters or queue items across overlapping runs, and
    hodor-lint A2 can verify no instance state straddles an ``await``.
    """

    queue: asyncio.Queue
    result: StreamResult
    retries: int = 0
    shed: int = 0
    abandoned: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class IngestConfig:
    """Tuning for the ingestion pipeline.

    Attributes:
        queue_size: Bound on the shared delivery queue.
        backpressure: ``"block"`` (producers wait for space) or
            ``"drop-oldest"`` (shed the oldest queued event).
        feed_timeout_s: Per-delivery timeout before a retry.
        max_retries: Failed/timed-out attempts before a feed is
            abandoned.
        backoff_base_s: First retry delay; doubles per attempt.
        deterministic: Merge all feeds in one producer (reproducible
            queue order) instead of one producer task per feed.
    """

    queue_size: int = 256
    backpressure: str = "block"
    feed_timeout_s: float = 5.0
    max_retries: int = 3
    backoff_base_s: float = 0.005
    deterministic: bool = True

    def __post_init__(self) -> None:
        if self.backpressure not in _BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {self.backpressure!r}; "
                f"expected one of {_BACKPRESSURE_POLICIES}"
            )
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
        backpressure_dropped: Events shed by the drop-oldest policy.
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
    backpressure_dropped: int = 0
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
        config: Queue/backpressure/retry tuning.
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
        # Classified once: an async feed's ``next_event`` is a coroutine
        # function; a sync replay feed's is called directly.
        self._feed_is_async = tuple(
            asyncio.iscoroutinefunction(feed.next_event) for feed in self._feeds
        )
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
        self._shed_total = self.metrics.counter(
            "stream_backpressure_dropped_total",
            "Events shed by the drop-oldest backpressure policy.",
        )
        self._retry_total = self.metrics.counter(
            "stream_feed_retries_total",
            "Feed delivery attempts retried after a failure or timeout.",
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
            self._shed_total,
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
    # Producers
    # ------------------------------------------------------------------

    async def _pull(
        self, state: _RunState, feed: RouterFeed, is_async: bool, attempts: int = 0
    ) -> Optional[UpdateEvent]:
        """Next delivery with retry/backoff; ``None`` = exhausted or
        abandoned (the caller cannot tell, and does not need to).

        Producers call a sync replay feed's ``next_event`` themselves --
        it cannot block, so it needs neither a timeout nor a coroutine
        frame -- and come here only for an async feed (real gNMI I/O,
        run under the per-feed timeout) or once a sync attempt has
        raised, passing the ``attempts`` already failed."""
        config = self.config
        while True:
            if attempts:
                state.retries += 1
                self._retry_total.inc()
                if attempts > config.max_retries:
                    state.abandoned.append(feed.router)
                    self._abandoned_total.inc()
                    return None
                await asyncio.sleep(config.backoff_base_s * (2 ** (attempts - 1)))
            try:
                if is_async:
                    return await asyncio.wait_for(
                        feed.next_event(), config.feed_timeout_s
                    )
                return feed.next_event()
            except (FeedError, asyncio.TimeoutError):
                attempts += 1

    async def _enqueue_full(self, state: _RunState, item: UpdateEvent) -> None:
        """Enqueue an event that found the queue full: wait for space
        (``"block"``) or shed the oldest queued event.  Producers
        ``put_nowait`` themselves while there is room -- ``Queue.put``
        only suspends on a full queue, so going around it changes no
        scheduling decision -- which makes this the one place a
        producer parks, and where the depth gauge is sampled."""
        queue = state.queue
        self._queue_gauge.set(float(queue.qsize()))
        if self.config.backpressure == "drop-oldest" and self._shed_oldest(state):
            queue.put_nowait(item)  # the shed event's slot
        else:
            # "block" -- or a queue full of control items, where nothing
            # is droppable.
            await queue.put(item)

    def _shed_oldest(self, state: _RunState) -> bool:
        """Discard the oldest queued *event*; controls are re-queued
        behind it (only ever delayed, never lost or reordered ahead of
        their own feed's events, which are all already dequeued)."""
        queue = state.queue
        controls: List[object] = []
        shed = False
        while not shed:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if isinstance(item, _FeedDone):
                controls.append(item)
            else:
                shed = True
                state.shed += 1
                self._shed_total.inc()
        for control in controls:
            queue.put_nowait(control)
        return shed

    async def _produce_one(
        self, state: _RunState, feed: RouterFeed, is_async: bool
    ) -> None:
        """Concurrent mode: one producer task per feed.  The feed's
        done-marker doubles as this task's terminal marker."""
        queue = state.queue
        try:
            while True:
                if is_async:
                    event = await self._pull(state, feed, True)
                else:
                    try:
                        event = feed.next_event()
                    except FeedError:
                        event = await self._pull(state, feed, False, attempts=1)
                if event is None:
                    break
                try:
                    queue.put_nowait(event)
                except asyncio.QueueFull:
                    await self._enqueue_full(state, event)
        finally:
            await queue.put(_FeedDone(feed.router, terminal=True))

    async def _produce_merged(self, state: _RunState) -> None:
        """Deterministic mode: merge every feed in delivery order.
        Per-feed done-markers are non-terminal (the single producer is
        still running); one terminal marker closes the task."""
        queue = state.queue
        try:
            heap: List[Tuple[float, str, int, int, UpdateEvent, RouterFeed, bool]] = []
            tiebreak = 0
            # Feeds still owed their first pull, last first; once every
            # feed is primed each pull replaces the delivery just sent.
            unprimed = list(zip(self._feeds, self._feed_is_async))[::-1]
            while unprimed or heap:
                if unprimed:
                    feed, is_async = unprimed.pop()
                else:
                    _ts, _router, _uid, _tb, event, feed, is_async = heapq.heappop(heap)
                    try:
                        queue.put_nowait(event)
                    except asyncio.QueueFull:
                        await self._enqueue_full(state, event)
                if is_async:
                    event = await self._pull(state, feed, True)
                else:
                    try:
                        event = feed.next_event()
                    except FeedError:
                        event = await self._pull(state, feed, False, attempts=1)
                if event is None:
                    await queue.put(_FeedDone(feed.router))
                    continue
                tiebreak += 1
                heapq.heappush(
                    heap,
                    (event.emit_ts, event.router, event.uid, tiebreak, event, feed, is_async),
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

    async def _consume(self, state: _RunState, remaining: int) -> None:
        """Drain the queue until every producer's terminal marker has
        been seen.  Each producer enqueues its terminal marker last, so
        FIFO order makes ``remaining == 0`` imply every queued event
        and done-marker has already been processed -- no shared
        counter, no window in which a pending marker can be missed."""
        queue = state.queue
        assembler = self._assembler
        while remaining > 0:
            # ``Queue.get`` only suspends on an empty queue; taking the
            # item directly otherwise changes no scheduling decision.
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                self._queue_gauge.set(0.0)
                item = await queue.get()
            if isinstance(item, _FeedDone):
                if item.terminal:
                    remaining -= 1
                sealed = assembler.mark_done(item.router) if item.router else []
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
        if self.config.deterministic:
            producers = [asyncio.ensure_future(self._produce_merged(state))]
        else:
            producers = [
                asyncio.ensure_future(self._produce_one(state, feed, is_async))
                for feed, is_async in zip(self._feeds, self._feed_is_async)
            ]
        try:
            await self._consume(state, remaining=len(producers))
            for task in producers:
                await task
        finally:
            for task in producers:
                if not task.done():
                    task.cancel()
        result = state.result
        result.updates = self._assembler.updates
        result.late_dropped = self._assembler.late_dropped
        result.duplicates = self._assembler.duplicates
        result.backpressure_dropped = state.shed
        result.retries = state.retries
        result.abandoned = tuple(state.abandoned)
        feed_dropped = sum(feed.stats.dropped for feed in self._feeds)
        self._feed_dropped_total.set_to(float(feed_dropped))
        return result

    def run(self) -> StreamResult:
        """Run the pipeline on a fresh event loop (CLI/test entry)."""
        return asyncio.run(self.run_async())

"""StreamPipeline: backpressure, retry/abandon, determinism."""

import asyncio
import gc

import pytest

from repro.engine import ValidationEngine, compare_reports
from repro.stream import (
    AssembledEpoch,
    EpochAssembler,
    FeedError,
    IngestConfig,
    Perturbations,
    StreamPipeline,
    StreamResult,
    UpdateEvent,
    make_feeds,
)
from repro.telemetry.snapshot import NetworkSnapshot

from tests.engine.conftest import random_epoch


def _timeline(size=6, seed=0, count=3, spacing=10.0):
    topology, snapshot, inputs = random_epoch(size, seed)
    epochs = []
    for index in range(count):
        ts = float(index) * spacing
        epochs.append(
            (
                ts,
                NetworkSnapshot(
                    timestamp=ts,
                    counters=dict(snapshot.counters),
                    link_status=dict(snapshot.link_status),
                    drains=dict(snapshot.drains),
                    drain_reasons=dict(snapshot.drain_reasons),
                    drops=dict(snapshot.drops),
                    link_drains=dict(snapshot.link_drains),
                    probes=dict(snapshot.probes),
                ),
            )
        )
    return topology, epochs, inputs


def _run(topology, epochs, inputs, perturb=None, seed=0, config=None, lateness=1.0):
    feeds = make_feeds(epochs, perturb=perturb, seed=seed)
    assembler = EpochAssembler(list(feeds), lateness_s=lateness)
    engine = ValidationEngine(topology)
    pipeline = StreamPipeline(
        list(feeds.values()),
        assembler,
        engine,
        inputs_for=lambda _ts: inputs,
        config=config,
    )
    return pipeline.run()


class _AlwaysFailingFeed:
    """A feed whose every delivery attempt raises FeedError."""

    def __init__(self, router):
        self.router = router

        class _Stats:
            dropped = 0

        self.stats = _Stats()

    def next_event(self):
        raise FeedError(f"{self.router} is down")


class TestHappyPath:
    def test_all_epochs_sealed_and_validated(self):
        topology, epochs, inputs = _timeline()
        result = _run(topology, epochs, inputs)
        assert len(result.epochs) == len(result.reports) == 3
        assert result.complete_epochs == 3
        assert result.partial_epochs == 0
        assert [e.timestamp for e in result.epochs] == [0.0, 10.0, 20.0]
        assert len(result.epoch_latency_s) == 3
        assert result.abandoned == ()

    def test_concurrent_mode_matches_deterministic_mode(self):
        topology, epochs, inputs = _timeline()
        ordered = _run(topology, epochs, inputs, config=IngestConfig(deterministic=True))
        racing = _run(topology, epochs, inputs, config=IngestConfig(deterministic=False))
        assert len(ordered.reports) == len(racing.reports) == 3
        for left, right in zip(ordered.reports, racing.reports):
            assert not compare_reports(left, right)

    def test_inputs_for_accepts_a_mapping(self):
        topology, epochs, inputs = _timeline()
        feeds = make_feeds(epochs)
        assembler = EpochAssembler(list(feeds))
        by_ts = {ts: inputs for ts, _snapshot in epochs}
        engine = ValidationEngine(topology)
        result = StreamPipeline(
            list(feeds.values()), assembler, engine, inputs_for=by_ts
        ).run()
        assert len(result.reports) == 3


class TestRetryAndAbandon:
    def test_transient_failures_are_retried(self):
        topology, epochs, inputs = _timeline()
        result = _run(
            topology, epochs, inputs, perturb=Perturbations(fail=1.0), seed=1
        )
        # fail=1.0 makes every delivery hiccup exactly once; every one
        # must be retried and then succeed, losing nothing.
        assert result.retries == result.updates > 0
        assert result.abandoned == ()
        assert result.complete_epochs == 3

    def test_dead_feed_is_abandoned_and_epochs_seal_partial(self):
        topology, epochs, inputs = _timeline()
        feeds = make_feeds(epochs)
        dead = _AlwaysFailingFeed("zz-dead-router")
        assembler = EpochAssembler(list(feeds) + [dead.router], lateness_s=1.0)
        config = IngestConfig(max_retries=2, backoff_base_s=0.0001)
        engine = ValidationEngine(topology)
        pipeline = StreamPipeline(
            list(feeds.values()) + [dead],
            assembler,
            engine,
            inputs_for=lambda _ts: inputs,
            config=config,
        )
        result = pipeline.run()
        assert result.abandoned == (dead.router,)
        assert result.retries == config.max_retries + 1
        assert len(result.epochs) == 3  # sealing survived the dead feed
        assert result.partial_epochs == 3
        assert all(epoch.missing == (dead.router,) for epoch in result.epochs)


class _AsyncFeed:
    """A real feed behind an ``async def next_event`` (the gNMI shape);
    the delivery attempts listed in ``stall_on`` never return."""

    def __init__(self, feed, stall_on=()):
        self.router = feed.router
        self.stats = feed.stats
        self._feed = feed
        self._stall_on = stall_on
        self.attempts = 0

    async def next_event(self):
        self.attempts += 1
        if self._stall_on is all or self.attempts in self._stall_on:
            await asyncio.Event().wait()
        return self._feed.next_event()


def _run_mixed(stall_on=(), config=None, perturb=None, seed=0):
    """The `_run` pipeline with the first feed made async."""
    topology, epochs, inputs = _timeline()
    feeds = list(make_feeds(epochs, perturb=perturb, seed=seed).values())
    feeds[0] = _AsyncFeed(feeds[0], stall_on)
    assembler = EpochAssembler([feed.router for feed in feeds], lateness_s=1.0)
    engine = ValidationEngine(topology)
    pipeline = StreamPipeline(
        feeds, assembler, engine, inputs_for=lambda _ts: inputs, config=config
    )
    return pipeline.run(), feeds[0]


class TestMixedSyncAndAsyncFeeds:
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_async_feed_among_sync_feeds_changes_nothing(self, deterministic):
        topology, epochs, inputs = _timeline()
        perturb = Perturbations(reorder=0.1, duplicate=0.05, fail=0.05)
        config = IngestConfig(deterministic=deterministic, backoff_base_s=0.0001)
        plain = _run(topology, epochs, inputs, perturb=perturb, seed=3, config=config)
        mixed, _feed = _run_mixed(config=config, perturb=perturb, seed=3)
        assert plain.retries == mixed.retries > 0
        assert (plain.updates, plain.duplicates) == (mixed.updates, mixed.duplicates)
        assert [e.coverage for e in plain.epochs] == [e.coverage for e in mixed.epochs]
        for left, right in zip(plain.reports, mixed.reports):
            assert not compare_reports(left, right)

    def test_stalled_async_delivery_times_out_and_is_retried(self):
        config = IngestConfig(feed_timeout_s=0.01, backoff_base_s=0.0001)
        result, feed = _run_mixed(stall_on=(1, 5), config=config)
        assert result.retries == 2
        assert result.abandoned == ()
        assert result.complete_epochs == 3
        assert feed.attempts == feed.stats.emitted + 2 + 1  # + the final None

    def test_hung_async_feed_is_abandoned_sync_feeds_unharmed(self):
        config = IngestConfig(feed_timeout_s=0.005, max_retries=2, backoff_base_s=0.0001)
        result, feed = _run_mixed(stall_on=all, config=config)
        assert result.abandoned == (feed.router,)
        assert result.retries == feed.attempts == config.max_retries + 1
        assert len(result.epochs) == result.partial_epochs == 3
        assert all(epoch.missing == (feed.router,) for epoch in result.epochs)

    def test_backoff_doubles_per_failed_attempt(self, monkeypatch):
        delays = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            delays.append(delay)
            await real_sleep(0)

        monkeypatch.setattr(asyncio, "sleep", recording_sleep)
        topology, epochs, inputs = _timeline()
        feeds = list(make_feeds(epochs).values())
        assembler = EpochAssembler([f.router for f in feeds] + ["zz"], lateness_s=1.0)
        engine = ValidationEngine(topology)
        result = StreamPipeline(
            feeds + [_AlwaysFailingFeed("zz")],
            assembler,
            engine,
            inputs_for=lambda _ts: inputs,
            config=IngestConfig(max_retries=3, backoff_base_s=0.5),
        ).run()
        assert result.abandoned == ("zz",)
        assert delays == [0.5, 1.0, 2.0]


class TestCountersMatchTheAwaitingPipeline:
    """Going around ``Queue.put``/``get`` when they cannot suspend must
    change no scheduling decision.  The expected values were recorded
    from the pipeline that awaited every hop (the commit before the
    ``put_nowait``/``get_nowait`` fast paths), on these same fixtures."""

    @pytest.mark.parametrize(
        "queue_size, deterministic, shed, offered",
        [(1, True, 282, 6), (2, True, 281, 7), (8, True, 245, 43), (2, False, 286, 2)],
    )
    def test_drop_oldest_shed_counts(self, queue_size, deterministic, shed, offered):
        topology, epochs, inputs = _timeline()
        config = IngestConfig(
            queue_size=queue_size, backpressure="drop-oldest", deterministic=deterministic
        )
        result = _run(topology, epochs, inputs, config=config)
        assert (result.backpressure_dropped, result.updates) == (shed, offered)
        assert [epoch.timestamp for epoch in result.epochs] == [20.0]

    @pytest.mark.parametrize("queue_size", [4, 256])
    def test_deterministic_mode_counters(self, queue_size):
        topology, epochs, inputs = _timeline()
        perturb = Perturbations(reorder=0.10, drop=0.01, duplicate=0.02, delay=0.01, fail=0.02)
        config = IngestConfig(queue_size=queue_size, backoff_base_s=0.0001)
        result = _run(topology, epochs, inputs, perturb=perturb, seed=3, config=config)
        assert (result.updates, result.duplicates, result.late_dropped) == (290, 5, 5)
        assert (result.retries, result.abandoned) == (3, ())
        assert [(e.updates, e.duplicates, e.sealed_by) for e in result.epochs] == [
            (93, 3, "watermark"),
            (93, 1, "watermark"),
            (94, 1, "watermark"),
        ]


class TestBackpressure:
    def test_block_policy_loses_nothing_on_a_tiny_queue(self):
        topology, epochs, inputs = _timeline()
        result = _run(
            topology,
            epochs,
            inputs,
            config=IngestConfig(queue_size=2, backpressure="block"),
        )
        assert result.backpressure_dropped == 0
        assert result.complete_epochs == 3

    def test_drop_oldest_sheds_but_still_seals_every_epoch(self):
        topology, epochs, inputs = _timeline()
        result = _run(
            topology,
            epochs,
            inputs,
            config=IngestConfig(queue_size=2, backpressure="drop-oldest"),
        )
        assert result.backpressure_dropped > 0
        # Shedding whole early epochs is allowed (their every event may
        # be discarded before the consumer runs); the run must still
        # terminate, seal the freshest epoch, and account for every
        # emitted delivery as either offered or shed.
        assert 1 <= len(result.epochs) <= 3
        assert result.epochs[-1].timestamp == 20.0
        assert result.updates + result.backpressure_dropped == sum(
            feed.stats.emitted
            for feed in make_feeds(epochs).values()
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IngestConfig(backpressure="drop-newest")
        with pytest.raises(ValueError):
            IngestConfig(queue_size=0)
        with pytest.raises(ValueError):
            IngestConfig(max_retries=-1)


class _RecordingAssembler(EpochAssembler):
    """Records the consumer-facing call sequence for ordering asserts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def offer(self, event):
        self.calls.append(("offer", event.router))
        return super().offer(event)

    def mark_done(self, router):
        self.calls.append(("mark_done", router))
        return super().mark_done(router)

    def drain(self):
        self.calls.append(("drain",))
        return super().drain()


class _EmptyFeed:
    """A feed that is exhausted from the start."""

    def __init__(self, router):
        self.router = router

        class _Stats:
            dropped = 0
            emitted = 0

        self.stats = _Stats()

    def next_event(self):
        return None


class _NullEngine:
    def validate_events(self, events, timestamp, inputs, topology=None):
        return object()


class TestTerminationOrdering:
    def test_every_done_marker_is_processed_before_drain(self):
        # Regression: the consumer used to stop on a shared live-producer
        # count decremented *before* the done-marker was enqueued.  With
        # queue_size=1 and two concurrent producers, producer B blocks
        # putting its marker behind A's; the consumer, scheduled in that
        # window, saw count==0 and an empty queue and shut down without
        # ever processing mark_done("B").  Termination now counts the
        # terminal markers themselves, which travel through the queue.
        assembler = _RecordingAssembler(["A", "B"], lateness_s=1.0)
        pipeline = StreamPipeline(
            [_EmptyFeed("A"), _EmptyFeed("B")],
            assembler,
            _NullEngine(),
            inputs_for=lambda _ts: None,
            config=IngestConfig(queue_size=1, deterministic=False),
        )
        result = pipeline.run()
        marked = {call[1] for call in assembler.calls if call[0] == "mark_done"}
        assert marked == {"A", "B"}
        assert assembler.calls[-1] == ("drain",)
        assert result.epochs == []

    def test_tiny_queue_concurrent_mode_still_seals_by_watermark(self):
        # End-to-end shape of the same property: with real events on a
        # one-slot queue, every epoch must seal on the watermark path
        # (all done-markers processed), never by shutdown drain.
        topology, epochs, inputs = _timeline()
        result = _run(
            topology,
            epochs,
            inputs,
            config=IngestConfig(queue_size=1, deterministic=False),
        )
        assert len(result.epochs) == 3
        assert all(epoch.sealed_by == "watermark" for epoch in result.epochs)


class TestCollectorPause:
    """The cyclic collector stays out of the seal-to-verdict window
    and is handed back exactly as it was found."""

    class _GcSpyEngine:
        def __init__(self):
            self.enabled_during_validate = []

        def validate_events(self, events, timestamp, inputs, topology=None):
            self.enabled_during_validate.append(gc.isenabled())
            return object()

    def _run(self, engine):
        _topology, epochs, _inputs = _timeline()
        feeds = make_feeds(epochs)
        return StreamPipeline(
            list(feeds.values()),
            EpochAssembler(list(feeds)),
            engine,
            inputs_for=lambda _ts: None,
        ).run()

    def test_paused_while_validating_and_restored_after(self):
        engine = self._GcSpyEngine()
        assert gc.isenabled()
        result = self._run(engine)
        assert engine.enabled_during_validate == [False] * len(result.epochs) == [False] * 3
        assert gc.isenabled()

    def test_a_collector_the_caller_disabled_stays_disabled(self):
        gc.disable()
        try:
            self._run(self._GcSpyEngine())
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restored_when_validation_raises(self):
        class _Boom(self._GcSpyEngine):
            def validate_events(self, events, timestamp, inputs, topology=None):
                raise RuntimeError("engine down")

        with pytest.raises(RuntimeError, match="engine down"):
            self._run(_Boom())
        assert gc.isenabled()


class TestResultRepr:
    def test_result_repr_is_one_line_however_long_the_run(self):
        events = tuple(
            UpdateEvent(
                router="a",
                path="/system/processes/drain[node=a]/state/drained",
                epoch_ts=0.0,
                emit_ts=0.0,
                uid=uid,
                value=False,
            )
            for uid in range(10_000)
        )
        epoch = AssembledEpoch(
            timestamp=0.0,
            snapshot=None,
            coverage={"a": len(events)},
            expected=("a",),
            missing=(),
            complete=True,
            sealed_by="drain",
            updates=len(events),
            duplicates=0,
            assembly_latency_s=0.0,
            events=events,
        )
        result = StreamResult(
            epochs=[epoch] * 8, reports=[object()] * 8, updates=80_000,
            epoch_latency_s=[0.01] * 8,
        )
        assert len(repr(result)) < 400
        assert "\n" not in repr(result) and "updates=80000" in repr(result)
        assert len(repr(epoch)) < 400
        assert result.complete_epochs == 8 and result.partial_epochs == 0


class TestMetrics:
    def test_queue_depth_is_sampled_where_a_task_parks(self, monkeypatch):
        # A 4-slot queue under a closed loop: the producer parks on a
        # full queue, the consumer on an empty one, and the run ends
        # with nothing queued -- the gauge's last sample.
        topology, epochs, inputs = _timeline()
        feeds = make_feeds(epochs)
        assembler = EpochAssembler(list(feeds))
        samples = []
        engine = ValidationEngine(topology)
        pipeline = StreamPipeline(
            list(feeds.values()),
            assembler,
            engine,
            inputs_for=lambda _ts: inputs,
            config=IngestConfig(queue_size=4),
        )
        monkeypatch.setattr(pipeline._queue_gauge, "set", samples.append)
        result = pipeline.run()
        assert set(samples) == {0.0, 4.0}
        assert samples[-1] == 0.0
        assert len(samples) < result.updates  # not once per delivery

    def test_pipeline_families_present_from_boot(self):
        topology, epochs, inputs = _timeline()
        feeds = make_feeds(epochs)
        assembler = EpochAssembler(list(feeds))
        engine = ValidationEngine(topology)
        pipeline = StreamPipeline(
            list(feeds.values()), assembler, engine, inputs_for=lambda _ts: inputs
        )
        pipeline.run()
        rendered = pipeline.metrics.render()
        for family in (
            "stream_queue_depth",
            "stream_backpressure_dropped_total",
            "stream_feed_retries_total",
            "stream_feeds_abandoned_total",
            "stream_feed_dropped_total",
            "stream_updates_total",
            "stream_epochs_sealed_total",
            "stream_assembly_latency_seconds_bucket",
        ):
            assert family in rendered, family

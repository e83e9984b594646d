"""EpochAssembler: watermarks, dedupe, partial epochs, lateness."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import EpochAssembler, UpdateEvent, reporting_routers, router_updates
from repro.stream.fold import EventFolder
from repro.telemetry.counters import CounterReading
from repro.telemetry.snapshot import NetworkSnapshot

from tests.engine.conftest import random_epoch


def _folded(epoch):
    """The snapshot a sealed epoch's event buffer describes."""
    return EventFolder().fold(epoch.events, epoch.timestamp)


def _event(router, epoch_ts, uid, emit_ts=None, node=None):
    node = node or router
    return UpdateEvent(
        router=router,
        path=f"/system/processes/drain[node={node}]/state/drained",
        epoch_ts=epoch_ts,
        emit_ts=epoch_ts if emit_ts is None else emit_ts,
        uid=uid,
        value=False,
    )


class TestWatermark:
    def test_starts_below_everything(self):
        assembler = EpochAssembler(["a", "b"])
        assert assembler.watermark() == float("-inf")

    def test_is_min_over_live_routers(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=1.0)
        assembler.offer(_event("a", 0.0, 1, emit_ts=50.0))
        assert assembler.watermark() == float("-inf")  # b has not spoken
        assembler.offer(_event("b", 0.0, 1, emit_ts=5.0))
        assert assembler.watermark() == 5.0

    def test_epoch_seals_when_watermark_passes_lateness(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=1.0)
        assert assembler.offer(_event("a", 0.0, 1)) == []
        assert assembler.offer(_event("b", 0.0, 1)) == []
        # Watermark 0.0 < 0.0 + 1.0: still open.
        assert assembler.open_epochs == 1
        sealed = assembler.offer(_event("a", 10.0, 2, emit_ts=10.0))
        assert sealed == []  # b's frontier still at 0.0
        sealed = assembler.offer(_event("b", 10.0, 2, emit_ts=10.0))
        assert [epoch.timestamp for epoch in sealed] == [0.0]
        assert sealed[0].sealed_by == "watermark"
        assert sealed[0].complete

    def test_mark_done_releases_the_watermark(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=1.0)
        assembler.offer(_event("a", 0.0, 1, emit_ts=50.0))
        assert assembler.open_epochs == 1
        sealed = assembler.mark_done("b")
        assert [epoch.timestamp for epoch in sealed] == [0.0]
        assert sealed[0].missing == ("b",)
        assert not sealed[0].complete

    def test_unknown_router_never_holds_sealing_back(self):
        assembler = EpochAssembler(["a"], lateness_s=0.0)
        assembler.offer(_event("ghost", 0.0, 1))  # not in expected set
        sealed = assembler.offer(_event("a", 0.0, 1, emit_ts=5.0))
        assert [epoch.timestamp for epoch in sealed] == [0.0]
        assert sealed[0].coverage == {"a": 1, "ghost": 1}


class TestDedupeAndLateness:
    def test_duplicates_suppressed_by_router_uid(self):
        assembler = EpochAssembler(["a"], lateness_s=1.0)
        assembler.offer(_event("a", 0.0, 1))
        assembler.offer(_event("a", 0.0, 1, emit_ts=0.2))  # same uid redelivered
        (epoch,) = assembler.drain()
        assert epoch.updates == 1
        assert epoch.duplicates == 1
        assert assembler.duplicates == 1

    def test_same_uid_from_different_routers_not_deduped(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=1.0)
        assembler.offer(_event("a", 0.0, 1))
        assembler.offer(_event("b", 0.0, 1))
        (epoch,) = assembler.drain()
        assert epoch.updates == 2
        assert epoch.duplicates == 0

    def test_late_delivery_counted_and_never_applied(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=0.0)
        assembler.offer(_event("a", 0.0, 1))
        sealed = assembler.offer(_event("b", 0.0, 1, emit_ts=5.0))
        assert [epoch.timestamp for epoch in sealed] == [0.0]
        before = dict(_folded(sealed[0]).drains)
        late = assembler.offer(_event("a", 0.0, 99, emit_ts=9.0))
        assert late == []
        assert assembler.late_dropped == 1
        assert _folded(sealed[0]).drains == before  # history untouched

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError):
            EpochAssembler(["a"], lateness_s=-1.0)


class TestDrainAndMetrics:
    def test_drain_seals_in_timestamp_order(self):
        assembler = EpochAssembler(["a"], lateness_s=100.0)
        assembler.offer(_event("a", 10.0, 2))
        assembler.offer(_event("a", 0.0, 1))
        drained = assembler.drain()
        assert [epoch.timestamp for epoch in drained] == [0.0, 10.0]
        assert all(epoch.sealed_by == "drain" for epoch in drained)
        assert assembler.open_epochs == 0

    def test_metric_families_present_from_boot(self):
        assembler = EpochAssembler(["a"])
        rendered = assembler.metrics.render()
        assert "stream_updates_total 0" in rendered
        assert "stream_late_updates_total 0" in rendered
        assert "stream_duplicate_updates_total 0" in rendered
        assert "stream_open_epochs 0" in rendered

    def test_sealed_counter_labelled_by_completeness(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=0.0)
        assembler.offer(_event("a", 0.0, 1))
        assembler.offer(_event("b", 0.0, 1, emit_ts=5.0))  # seals complete
        assembler.offer(_event("a", 10.0, 2, emit_ts=10.0))
        assembler.mark_done("a")
        assembler.mark_done("b")  # seals partial (b never spoke for 10.0)
        rendered = assembler.metrics.render()
        assert 'stream_epochs_sealed_total{result="complete"} 1' in rendered
        assert 'stream_epochs_sealed_total{result="partial"} 1' in rendered

    def test_interleaving_cannot_change_the_snapshot(self):
        forward = EpochAssembler(["a", "b"], lateness_s=100.0)
        backward = EpochAssembler(["a", "b"], lateness_s=100.0)
        events = [
            _event("a", 0.0, 1),
            _event("b", 0.0, 1),
            _event("a", 0.0, 2, node="x"),
            _event("b", 0.0, 2, node="y"),
        ]
        for event in events:
            forward.offer(event)
        for event in reversed(events):
            backward.offer(event)
        (left,) = forward.drain()
        (right,) = backward.drain()
        assert _folded(left).drains == _folded(right).drains
        assert left.coverage == right.coverage


def _assemble(events, snapshot, lateness_s=1.0):
    """Push an event sequence through an assembler; return the snapshot."""
    assembler = EpochAssembler(reporting_routers(snapshot), lateness_s=lateness_s)
    sealed = []
    for event in events:
        sealed.extend(assembler.offer(event))
    sealed.extend(assembler.drain())
    assert len(sealed) == 1
    return _folded(sealed[0])


def _events_for(snapshot):
    events = []
    for router in reporting_routers(snapshot):
        for uid, (path, value, meta) in enumerate(router_updates(snapshot, router)):
            events.append(
                UpdateEvent(
                    router=router,
                    path=path,
                    epoch_ts=snapshot.timestamp,
                    emit_ts=snapshot.timestamp,
                    uid=uid,
                    value=value,
                    meta=meta,
                )
            )
    return events


class TestAssemblerStreamInvariance:
    """Reordered/duplicated update streams cannot change the snapshot.

    The streaming path replaces batch snapshots with per-path update
    events; the engine then diffs the sealed epoch against the previous
    one.  These properties pin the contract the stream subsystem leans
    on: for *any* permutation of the update sequence, with arbitrary
    duplicated deliveries mixed in, the assembled snapshot equals the
    one the updates were cut from.
    """

    @given(
        seed=st.integers(min_value=0, max_value=3),
        order_seed=st.integers(min_value=0, max_value=2**16),
        dup_stride=st.integers(min_value=2, max_value=7),
    )
    @settings(max_examples=15, deadline=None)
    def test_permuted_duplicated_stream_yields_same_snapshot(
        self, seed, order_seed, dup_stride
    ):
        _topology, target, _inputs = random_epoch(8, seed)
        events = _events_for(target)
        rng = random.Random(order_seed)
        rng.shuffle(events)
        stream = []
        for index, event in enumerate(events):
            stream.append(event)
            if index % dup_stride == 0:  # redeliver with the same uid
                stream.append(event)
        # Lossless codec: assembly reproduced the target signal-for-signal.
        assert _assemble(stream, target) == target

    def test_interleaved_counter_halves_merge_order_free(self):
        """rx/tx halves of distinct interfaces arriving interleaved and
        reversed still merge into the exact canonical readings."""
        target = NetworkSnapshot(
            timestamp=30.0,
            counters={
                ("a", "b"): CounterReading(1.0, 2.0, timestamp=25.0, sequence=3),
                ("a", "c"): CounterReading(4.0, 8.0, timestamp=26.0, sequence=4),
            },
        )
        assert _assemble(reversed(_events_for(target)), target) == target

    def test_duplicated_counter_updates_are_deduped_not_reapplied(self):
        target = NetworkSnapshot(
            timestamp=10.0, counters={("a", "b"): CounterReading(1.0, 2.0)}
        )
        events = _events_for(target)
        assembler = EpochAssembler(reporting_routers(target), lateness_s=1.0)
        sealed = []
        for event in events + events + events:  # every update delivered thrice
            sealed.extend(assembler.offer(event))
        sealed.extend(assembler.drain())
        (epoch,) = sealed
        assert epoch.duplicates == len(events) * 2
        assert epoch.updates == len(events)
        assert _folded(epoch) == target


class _ReferenceAssembler:
    """The assembler as first written: ``min(progress)`` and a scan of
    every open epoch on every call, one flat ``(router, uid)`` buffer."""

    def __init__(self, routers, lateness_s):
        self.expected = tuple(sorted(set(routers)))
        self.lateness_s = lateness_s
        self.progress = {router: float("-inf") for router in self.expected}
        self.done, self.sealed, self.open = set(), set(), {}
        self.updates = self.duplicates = self.late_dropped = 0

    def watermark(self):
        live = [self.progress[r] for r in self.expected if r not in self.done]
        return min(live) if live else float("inf")

    def offer(self, event):
        self.updates += 1
        if event.epoch_ts in self.sealed:
            self.late_dropped += 1
        else:
            buffer, dups = self.open.setdefault(event.epoch_ts, ({}, []))
            if (event.router, event.uid) in buffer:
                dups.append(event)
                self.duplicates += 1
            else:
                buffer[(event.router, event.uid)] = event
        if event.router in self.progress:
            self.progress[event.router] = max(self.progress[event.router], event.emit_ts)
        return self.seal_ready()

    def mark_done(self, router):
        self.done.add(router)
        return self.seal_ready()

    def seal_ready(self):
        ready = [ts for ts in sorted(self.open) if ts + self.lateness_s <= self.watermark()]
        return [self.seal(ts, "watermark") for ts in ready]

    def drain(self):
        return [self.seal(ts, "drain") for ts in sorted(self.open)]

    def seal(self, ts, sealed_by):
        buffer, dups = self.open.pop(ts)
        self.sealed.add(ts)
        return ts, sealed_by, tuple(buffer[key] for key in sorted(buffer)), len(dups)


_ROUTERS = ("a", "b", "c")
_OPS = st.one_of(
    st.tuples(
        st.just("offer"),
        st.sampled_from(_ROUTERS + ("ghost",)),  # ghost is outside `expected`
        st.sampled_from((0.0, 10.0, 20.0, 30.0)),  # epoch
        st.integers(min_value=1, max_value=4),  # uid: collisions are duplicates
        st.sampled_from((0.0, 0.3, 1.0, 2.5, 11.0, 35.0)),  # emit_ts - epoch_ts
    ),
    st.tuples(st.just("done"), st.sampled_from(_ROUTERS + ("ghost",))),
    st.tuples(st.just("drain")),
)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        ops=st.lists(_OPS, max_size=60),
        lateness_s=st.sampled_from((0.0, 1.0, 12.0)),
    )
    def test_cached_watermark_seals_exactly_what_the_full_scan_does(
        self, ops, lateness_s
    ):
        """Any interleaving of offer/mark_done/drain -- reordered,
        duplicated and late deliveries, routers outside ``expected``,
        epochs first seen after the watermark has already passed them
        -- seals the same epochs, in the same order, with the same
        events in the same order as recomputing everything per call."""
        assembler = EpochAssembler(_ROUTERS, lateness_s=lateness_s)
        reference = _ReferenceAssembler(_ROUTERS, lateness_s)
        for op in ops:
            if op[0] == "offer":
                _kind, router, epoch_ts, uid, lag = op
                event = _event(router, epoch_ts, uid, emit_ts=epoch_ts + lag)
                sealed, expected = assembler.offer(event), reference.offer(event)
            elif op[0] == "done":
                sealed, expected = assembler.mark_done(op[1]), reference.mark_done(op[1])
            else:
                sealed, expected = assembler.drain(), reference.drain()
            assert [
                (epoch.timestamp, epoch.sealed_by, epoch.events, epoch.duplicates)
                for epoch in sealed
            ] == expected
            for epoch in sealed:
                assert epoch.updates == len(epoch.events) == sum(epoch.coverage.values())
                assert list(epoch.coverage) == sorted({e.router for e in epoch.events})
                assert epoch.missing == tuple(
                    r for r in _ROUTERS if r not in epoch.coverage
                )
            assert assembler.watermark() == reference.watermark()
            assert assembler.open_epochs == len(reference.open)
        assert (assembler.updates, assembler.duplicates, assembler.late_dropped) == (
            reference.updates,
            reference.duplicates,
            reference.late_dropped,
        )


class TestRepr:
    def test_sealed_epoch_repr_is_a_summary_not_a_dump(self):
        assembler = EpochAssembler(["a"], lateness_s=1.0)
        for uid in range(10_000):
            assembler.offer(_event("a", 0.0, uid))
        (epoch,) = assembler.drain()
        assert len(epoch.events) == 10_000
        assert len(repr(epoch)) < 400
        assert "updates=10000" in repr(epoch)

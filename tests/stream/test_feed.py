"""RouterFeed: seeded, deterministic delivery perturbation."""

import pytest

from repro.stream import (
    FeedError,
    Perturbations,
    RouterFeed,
    make_feeds,
    reporting_routers,
    router_updates,
    updates_by_router,
)
from repro.telemetry.paths import SignalPath

from tests.engine.conftest import random_epoch


def _epochs(size=8, seed=0, count=3, spacing=10.0):
    """A small epoch sequence: one churnless snapshot re-timestamped."""
    from repro.telemetry.snapshot import NetworkSnapshot

    _topology, snapshot, _inputs = random_epoch(size, seed)
    out = []
    for index in range(count):
        ts = float(index) * spacing
        out.append(
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
    return out


def _drainfeed(feed):
    """Every delivery, retrying through scheduled failures."""
    events = []
    while not feed.exhausted:
        try:
            event = feed.next_event()
        except FeedError:
            continue
        if event is None:
            break
        events.append(event)
    return events


PERTURB = Perturbations(reorder=0.2, duplicate=0.1, delay=0.05, drop=0.05, fail=0.02)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        epochs = _epochs()
        router = reporting_routers(epochs[0][1])[0]
        a = _drainfeed(RouterFeed(router, epochs, perturb=PERTURB, seed=42))
        b = _drainfeed(RouterFeed(router, epochs, perturb=PERTURB, seed=42))
        assert a == b
        assert len(a) > 0

    def test_different_seed_different_stream(self):
        epochs = _epochs()
        router = reporting_routers(epochs[0][1])[0]
        a = _drainfeed(RouterFeed(router, epochs, perturb=PERTURB, seed=1))
        b = _drainfeed(RouterFeed(router, epochs, perturb=PERTURB, seed=2))
        assert a != b

    def test_sibling_routers_perturb_independently(self):
        epochs = _epochs()
        feeds = make_feeds(epochs, perturb=PERTURB, seed=7)
        stats = {router: feed.stats.dropped for router, feed in feeds.items()}
        # Identical per-router streams would drop identical counts
        # everywhere; independent RNG streams will not.
        assert len(set(stats.values())) > 1


class TestPerfectFeed:
    def test_lossless_in_order_punctual(self):
        epochs = _epochs()
        router = reporting_routers(epochs[0][1])[0]
        feed = RouterFeed(router, epochs)
        events = _drainfeed(feed)
        assert feed.stats.emitted == feed.stats.updates == len(events)
        assert feed.stats.dropped == feed.stats.failures == 0
        for event in events:
            assert event.emit_ts in dict(epochs)  # punctual: emit == epoch
            assert event.emit_ts == pytest.approx(event.epoch_ts)
        uids = [event.uid for event in events]
        assert uids == sorted(uids)  # delivery order is uid order


class TestPerturbations:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            Perturbations(drop=1.5)
        with pytest.raises(ValueError):
            Perturbations(reorder=-0.1)

    def test_drop_removes_deliveries(self):
        epochs = _epochs()
        router = reporting_routers(epochs[0][1])[0]
        feed = RouterFeed(router, epochs, perturb=Perturbations(drop=0.5), seed=3)
        assert feed.stats.dropped > 0
        assert len(feed) == feed.stats.updates - feed.stats.dropped

    def test_duplicate_reuses_uid(self):
        epochs = _epochs()
        router = reporting_routers(epochs[0][1])[0]
        feed = RouterFeed(router, epochs, perturb=Perturbations(duplicate=0.5), seed=3)
        events = _drainfeed(feed)
        assert feed.stats.duplicated > 0
        assert len(events) == feed.stats.updates + feed.stats.duplicated
        uids = [event.uid for event in events]
        assert len(uids) - len(set(uids)) == feed.stats.duplicated

    def test_delay_pushes_past_window(self):
        epochs = _epochs()
        router = reporting_routers(epochs[0][1])[0]
        perturb = Perturbations(delay=0.5, delay_s=30.0)
        feed = RouterFeed(router, epochs, perturb=perturb, seed=3)
        late = [e for e in _drainfeed(feed) if e.emit_ts >= e.epoch_ts + perturb.delay_s]
        assert len(late) == feed.stats.delayed > 0

    def test_reorder_stays_inside_window(self):
        epochs = _epochs()
        router = reporting_routers(epochs[0][1])[0]
        perturb = Perturbations(reorder=0.5, reorder_jitter_s=0.4)
        feed = RouterFeed(router, epochs, perturb=perturb, seed=3)
        assert feed.stats.reordered > 0
        for event in _drainfeed(feed):
            assert event.emit_ts <= event.epoch_ts + perturb.reorder_jitter_s

    def test_failure_raises_once_and_holds_position(self):
        epochs = _epochs()
        router = reporting_routers(epochs[0][1])[0]
        feed = RouterFeed(router, epochs, perturb=Perturbations(fail=1.0), seed=3)
        with pytest.raises(FeedError):
            feed.next_event()
        event = feed.next_event()  # retry succeeds, same delivery
        assert event is not None and event.uid == 1
        assert feed.stats.failures == 1


class TestMakeFeeds:
    def test_covers_every_reporting_router(self):
        epochs = _epochs()
        feeds = make_feeds(epochs, seed=0)
        assert sorted(feeds) == reporting_routers(epochs[0][1])
        assert all(feeds[r].router == r for r in feeds)

    def test_sliced_once_equals_one_feed_at_a_time(self):
        # make_feeds groups each snapshot by router in one pass; every
        # feed must replay exactly what a feed built alone from the
        # whole epoch sequence does -- same rows, same rng draws.
        epochs = _epochs()
        only_drains = epochs[0][1].__class__(timestamp=30.0, drain_reasons={"zz": "rma"})
        epochs.append((30.0, only_drains))
        feeds = make_feeds(epochs, perturb=PERTURB, seed=5)
        assert "zz" in feeds  # a router whose only signal is a label
        for router, feed in feeds.items():
            alone = RouterFeed(router, epochs, perturb=PERTURB, seed=5)
            assert feed.stats == alone.stats
            assert _drainfeed(feed) == _drainfeed(alone)

    def test_updates_by_router_partitions_the_snapshot(self):
        snapshot = _epochs()[0][1]
        by_router = updates_by_router(snapshot)
        assert sorted(by_router) == reporting_routers(snapshot)
        for router, rows in by_router.items():
            assert rows == router_updates(snapshot, router)
            assert all(SignalPath.parse(path).node == router for path, _v, _m in rows)
            assert [path for path, _v, _m in rows] == list(
                dict.fromkeys(path for path, _v, _m in rows)
            )  # no path twice
        assert router_updates(snapshot, "nobody") == []

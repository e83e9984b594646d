"""Streaming differential harness: streamed == batch, end to end.

The acceptance bar for the streaming subsystem: replaying every
catalog scenario's timeline through perturbation-free feeds, the
assembler, and the ingest pipeline must produce validation reports
that are observably identical to the batch path's -- verdict for
verdict AND provenance record for provenance record -- on both engine
backends.  The assembler seals sorted event buffers; the vector
backend packs them into its slot arrays and the python backend folds
them through :class:`repro.stream.fold.EventFolder`, which must itself
match the reference codec ``apply_update`` signal for signal.
"""

import pytest

from repro.engine import ValidationEngine, compare_reports
from repro.scenarios.catalog import all_scenarios, scenario_by_id
from repro.stream import EpochAssembler, Perturbations, StreamPipeline, make_feeds
from repro.stream.events import UpdateEvent, apply_update, router_updates
from repro.stream.fold import EventFolder
from repro.telemetry.counters import CounterReading
from repro.telemetry.snapshot import LinkStatusReport, NetworkSnapshot, ProbeResult

EPOCHS = 3
BACKENDS = ("python", "vector")


def _provenance_dict(report):
    return {name: record.to_dict() for name, record in report.provenance.items()}


def _stream_reports(world, epochs, inputs_by_ts, backend, perturb=None, seed=0):
    feeds = make_feeds(epochs, perturb=perturb, seed=seed)
    assembler = EpochAssembler(list(feeds), lateness_s=1.0)
    engine = ValidationEngine(
        world.topology, config=world.hodor_config, backend=backend
    )
    pipeline = StreamPipeline(
        list(feeds.values()), assembler, engine, inputs_for=inputs_by_ts
    )
    return pipeline.run()


def _timeline(world):
    epochs, inputs_by_ts, batch_reports = [], {}, []
    for epoch in range(EPOCHS):
        outcome = world.run_epoch(timestamp=float(epoch) * 10.0)
        epochs.append((outcome.snapshot.timestamp, outcome.snapshot))
        inputs_by_ts[outcome.snapshot.timestamp] = outcome.inputs
        batch_reports.append(outcome.report)
    return epochs, inputs_by_ts, batch_reports


def _assert_matches_batch(batch_reports, result, context):
    for index, (batch, streamed) in enumerate(zip(batch_reports, result.reports)):
        diffs = compare_reports(batch, streamed)
        assert not diffs, f"{context} epoch {index}: {diffs[:5]}"
        assert _provenance_dict(batch) == _provenance_dict(streamed), (
            f"{context} epoch {index}: provenance diverged"
        )


@pytest.mark.parametrize("scenario", all_scenarios(), ids=lambda s: s.scenario_id)
def test_streamed_timeline_matches_batch_in_both_modes(scenario):
    """Every catalog scenario, streamed, in both engine modes: the python
    AND the vector backend."""
    world = scenario.build(seed=7)
    epochs, inputs_by_ts, batch_reports = _timeline(world)
    for backend in BACKENDS:
        result = _stream_reports(world, epochs, inputs_by_ts, backend)
        assert len(result.reports) == EPOCHS
        assert result.complete_epochs == EPOCHS
        assert result.late_dropped == 0
        assert [e.timestamp for e in result.epochs] == [ts for ts, _ in epochs]
        assert all(e.events for e in result.epochs)
        _assert_matches_batch(batch_reports, result, f"{scenario.scenario_id} {backend}")


@pytest.mark.parametrize("scenario_id", ["S01", "S16"])
def test_in_window_reordering_is_verdict_invisible(scenario_id):
    """Reorder jitter inside the lateness window must not change one
    verdict on either backend: the assembler's buffer-and-sort sealing
    absorbs it."""
    world = scenario_by_id(scenario_id).build(seed=7)
    epochs, inputs_by_ts, batch_reports = _timeline(world)
    perturb = Perturbations(reorder=0.5, duplicate=0.3, reorder_jitter_s=0.4)
    for backend in BACKENDS:
        result = _stream_reports(
            world, epochs, inputs_by_ts, backend, perturb=perturb, seed=11
        )
        assert result.duplicates > 0  # the perturbation actually fired
        assert len(result.reports) == EPOCHS
        assert result.complete_epochs == EPOCHS
        _assert_matches_batch(batch_reports, result, f"{scenario_id} {backend}")


def test_fold_parity_on_malformed_junk():
    """The folder must pass raw wire values through untouched -- the
    same junk-preserving contract as apply_update, because hardening
    this early would hide what the engine's harden stages catch."""
    snapshot = NetworkSnapshot(timestamp=5.0)
    snapshot.counters[("a", "b")] = CounterReading(
        rx_rate=float("nan"), tx_rate="garbage", sequence=-3
    )
    snapshot.link_status[("a", "b")] = LinkStatusReport(oper_up="maybe", admin_up=None)
    snapshot.drains["a"] = "not-a-bool"
    snapshot.drain_reasons["a"] = 12345
    snapshot.link_drains[("a", "b")] = float("inf")
    snapshot.drops["a"] = -1.5
    snapshot.probes[("a", "b")] = ProbeResult(ok=True, rtt_ms="slow")

    events = [
        UpdateEvent(
            router="a", uid=i, epoch_ts=5.0, emit_ts=5.0,
            path=path, value=value, meta=meta,
        )
        for i, (path, value, meta) in enumerate(router_updates(snapshot, "a"))
    ]
    ordered = sorted(events, key=lambda e: (e.router, e.uid))

    applied = NetworkSnapshot(timestamp=5.0)
    for event in ordered:
        apply_update(applied, event.path, event.value, event.meta)  # lint: ignore[T1]
    folded = EventFolder().fold(ordered, timestamp=5.0)

    assert folded.timestamp == applied.timestamp
    assert set(folded.counters) == set(applied.counters)
    for key, want in applied.counters.items():
        got = folded.counters[key]
        assert repr(got.rx_rate) == repr(want.rx_rate)
        assert got.tx_rate == want.tx_rate
        assert got.sequence == want.sequence
        assert got.timestamp == want.timestamp
        assert got.window_s == want.window_s
    assert folded.link_status == applied.link_status or {
        k: (v.oper_up, v.admin_up) for k, v in folded.link_status.items()
    } == {k: (v.oper_up, v.admin_up) for k, v in applied.link_status.items()}
    assert folded.drains == applied.drains
    assert folded.drain_reasons == applied.drain_reasons
    assert folded.link_drains == applied.link_drains
    assert folded.drops == applied.drops
    assert {k: (p.ok, p.rtt_ms) for k, p in folded.probes.items()} == {
        k: (p.ok, p.rtt_ms) for k, p in applied.probes.items()
    }


def test_folder_caches_paths_across_epochs():
    """Second fold of the same vocabulary decodes nothing new."""
    snapshot = NetworkSnapshot(timestamp=0.0)
    snapshot.drains["r1"] = False
    snapshot.drops["r1"] = 10.0
    updates = list(router_updates(snapshot, "r1"))
    events = [
        UpdateEvent(
            router="r1", uid=i, epoch_ts=0.0, emit_ts=0.0,
            path=p, value=v, meta=m,
        )
        for i, (p, v, m) in enumerate(updates)
    ]
    folder = EventFolder()
    folder.fold(events, timestamp=0.0)
    first = folder.cached_paths
    assert first == len({e.path for e in events})
    folder.fold(events, timestamp=1.0)
    assert folder.cached_paths == first

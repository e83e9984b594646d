"""Scatter-path differential: folded epochs == applied epochs, exactly.

The scatter path (``EpochAssembler(build_snapshots=False)`` +
``ValidationEngine.validate_events``) replaces the assembler's
per-event ``SignalPath.parse`` with :class:`repro.stream.fold.EventFolder`'s
cached decode.  Its correctness bar is absolute: for every catalog
scenario and both engine backends, the folded pipeline must
produce verdicts AND provenance identical to the classic applied
pipeline -- and both identical to batch.  Any drift here would poison
the fleet differential (which runs tenants through the scatter path).
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


def _provenance_dict(report):
    return {name: record.to_dict() for name, record in report.provenance.items()}


def _timeline(world):
    epochs, inputs_by_ts, batch_reports = [], {}, []
    for epoch in range(EPOCHS):
        outcome = world.run_epoch(timestamp=float(epoch) * 10.0)
        epochs.append((outcome.snapshot.timestamp, outcome.snapshot))
        inputs_by_ts[outcome.snapshot.timestamp] = outcome.inputs
        batch_reports.append(outcome.report)
    return epochs, inputs_by_ts, batch_reports


def _stream_reports(world, epochs, inputs_by_ts, backend, scatter, perturb=None, seed=0):
    feeds = make_feeds(epochs, perturb=perturb, seed=seed)
    assembler = EpochAssembler(list(feeds), lateness_s=1.0, build_snapshots=not scatter)
    with ValidationEngine(
        world.topology, config=world.hodor_config, backend=backend
    ) as engine:
        pipeline = StreamPipeline(
            list(feeds.values()), assembler, engine, inputs_for=inputs_by_ts
        )
        return pipeline.run()


@pytest.mark.parametrize("scenario", all_scenarios(), ids=lambda s: s.scenario_id)
def test_scatter_matches_batch_all_modes_and_backends(scenario):
    """Every catalog scenario, scattered, in every engine mode there is:
    the python and the vector backend."""
    world = scenario.build(seed=7)
    epochs, inputs_by_ts, batch_reports = _timeline(world)
    for backend in ("python", "vector"):
        result = _stream_reports(world, epochs, inputs_by_ts, backend, scatter=True)
        assert len(result.reports) == EPOCHS
        assert result.complete_epochs == EPOCHS
        assert all(e.snapshot is None for e in result.epochs)
        assert all(e.events for e in result.epochs)
        for index, (batch, streamed) in enumerate(zip(batch_reports, result.reports)):
            diffs = compare_reports(batch, streamed)
            assert not diffs, (
                f"{scenario.scenario_id} {backend} epoch {index}: {diffs[:5]}"
            )
            assert _provenance_dict(batch) == _provenance_dict(streamed), (
                f"{scenario.scenario_id} {backend} epoch {index}: provenance diverged"
            )


@pytest.mark.parametrize("scenario_id", ["S01", "S16"])
def test_scatter_equals_classic_under_perturbation(scenario_id):
    """Scattered and applied pipelines agree report-for-report even
    when feeds reorder and duplicate deliveries: the sorted seal buffer
    feeds both paths identically."""
    world = scenario_by_id(scenario_id).build(seed=7)
    epochs, inputs_by_ts, _ = _timeline(world)
    perturb = Perturbations(reorder=0.5, duplicate=0.3, reorder_jitter_s=0.4)
    classic = _stream_reports(
        world, epochs, inputs_by_ts, "python",
        scatter=False, perturb=perturb, seed=11,
    )
    scattered = _stream_reports(
        world, epochs, inputs_by_ts, "python",
        scatter=True, perturb=perturb, seed=11,
    )
    assert scattered.duplicates == classic.duplicates > 0
    assert len(scattered.reports) == len(classic.reports) == EPOCHS
    for index, (applied, folded) in enumerate(
        zip(classic.reports, scattered.reports)
    ):
        diffs = compare_reports(applied, folded)
        assert not diffs, f"epoch {index}: {diffs[:5]}"
        assert _provenance_dict(applied) == _provenance_dict(folded)


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

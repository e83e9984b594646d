"""Scatter entry-point differential: validated event buffers == batch.

``ValidationEngine.validate_events`` is the stream's only entry point:
the vector backend scatters a sealed event buffer straight into its
slot arrays and the python backend folds it through
:class:`repro.stream.fold.EventFolder`.  This suite drives that entry
point directly -- the assembler is fed by hand and every sealed epoch
goes to ``validate_events`` with no ingest pipeline in between -- so a
drift in the scatter itself is caught apart from any queueing, retry
or scheduling behaviour of :class:`repro.stream.StreamPipeline` (which
``test_stream_differential`` covers end to end).
"""

import heapq

import pytest

from repro.engine import ValidationEngine, compare_reports
from repro.scenarios.catalog import all_scenarios
from repro.stream import EpochAssembler, make_feeds

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


def _sealed_epochs(epochs):
    """Every epoch the assembler seals, fed in emit order by hand."""
    feeds = make_feeds(epochs)
    assembler = EpochAssembler(list(feeds), lateness_s=1.0)
    streams = []
    for feed in feeds.values():
        events = []
        while (event := feed.next_event()) is not None:
            events.append(event)
        streams.append(events)
    sealed = []
    merged = heapq.merge(*streams, key=lambda e: (e.emit_ts, e.router, e.uid))
    for event in merged:
        sealed.extend(assembler.offer(event))
    sealed.extend(assembler.drain())
    return sealed


@pytest.mark.parametrize("scenario", all_scenarios(), ids=lambda s: s.scenario_id)
def test_scatter_matches_batch_all_modes_and_backends(scenario):
    """Every catalog scenario, its sealed buffers validated straight
    through ``validate_events``, in every engine mode there is: the
    python and the vector backend."""
    world = scenario.build(seed=7)
    epochs, inputs_by_ts, batch_reports = _timeline(world)
    sealed = _sealed_epochs(epochs)
    assert [e.timestamp for e in sealed] == [ts for ts, _ in epochs]
    assert all(e.complete for e in sealed)
    assert all(e.snapshot is None for e in sealed)
    assert all(e.events for e in sealed)
    for backend in ("python", "vector"):
        engine = ValidationEngine(
            world.topology, config=world.hodor_config, backend=backend
        )
        reports = [
            engine.validate_events(e.events, e.timestamp, inputs_by_ts[e.timestamp])
            for e in sealed
        ]
        for index, (batch, scattered) in enumerate(zip(batch_reports, reports)):
            diffs = compare_reports(batch, scattered)
            assert not diffs, (
                f"{scenario.scenario_id} {backend} epoch {index}: {diffs[:5]}"
            )
            assert _provenance_dict(batch) == _provenance_dict(scattered), (
                f"{scenario.scenario_id} {backend} epoch {index}: provenance diverged"
            )

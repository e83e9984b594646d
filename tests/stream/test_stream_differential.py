"""Streaming differential harness: streamed == batch, end to end.

The acceptance bar for the streaming subsystem: replaying every
catalog scenario's timeline through perturbation-free feeds, the
assembler, and the ingest pipeline must produce validation reports
that are observably identical to the batch path's -- verdict for
verdict AND provenance record for provenance record -- on both engine
backends.
"""

import pytest

from repro.engine import ValidationEngine, compare_reports
from repro.scenarios.catalog import all_scenarios, scenario_by_id
from repro.stream import EpochAssembler, Perturbations, StreamPipeline, make_feeds

EPOCHS = 3


def _provenance_dict(report):
    return {name: record.to_dict() for name, record in report.provenance.items()}


def _stream_reports(world, epochs, inputs_by_ts, backend, perturb=None, seed=0):
    feeds = make_feeds(epochs, perturb=perturb, seed=seed)
    assembler = EpochAssembler(list(feeds), lateness_s=1.0)
    with ValidationEngine(
        world.topology, config=world.hodor_config, backend=backend
    ) as engine:
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


@pytest.mark.parametrize("scenario", all_scenarios(), ids=lambda s: s.scenario_id)
def test_streamed_timeline_matches_batch_in_both_modes(scenario):
    """Every catalog scenario, streamed, in both engine modes: the python
    AND the vector backend."""
    world = scenario.build(seed=7)
    epochs, inputs_by_ts, batch_reports = _timeline(world)
    for backend in ("python", "vector"):
        result = _stream_reports(world, epochs, inputs_by_ts, backend)
        assert len(result.reports) == EPOCHS
        assert result.complete_epochs == EPOCHS
        assert result.late_dropped == 0
        assert [e.timestamp for e in result.epochs] == [ts for ts, _ in epochs]
        for index, (batch, streamed) in enumerate(zip(batch_reports, result.reports)):
            diffs = compare_reports(batch, streamed)
            assert not diffs, (
                f"{scenario.scenario_id} {backend} epoch {index}: {diffs[:5]}"
            )
            assert _provenance_dict(batch) == _provenance_dict(streamed), (
                f"{scenario.scenario_id} {backend} epoch {index}: provenance diverged"
            )


@pytest.mark.parametrize("scenario_id", ["S01", "S16"])
def test_in_window_reordering_is_verdict_invisible(scenario_id):
    """Reorder jitter inside the lateness window must not change one
    verdict: the assembler's buffer-and-sort sealing absorbs it."""
    world = scenario_by_id(scenario_id).build(seed=7)
    epochs, inputs_by_ts, batch_reports = _timeline(world)
    perturb = Perturbations(reorder=0.5, duplicate=0.3, reorder_jitter_s=0.4)
    result = _stream_reports(world, epochs, inputs_by_ts, "python", perturb=perturb, seed=11)
    assert result.duplicates > 0  # the perturbation actually fired
    assert len(result.reports) == EPOCHS
    assert result.complete_epochs == EPOCHS
    for index, (batch, streamed) in enumerate(zip(batch_reports, result.reports)):
        diffs = compare_reports(batch, streamed)
        assert not diffs, f"epoch {index}: {diffs[:5]}"
        assert _provenance_dict(batch) == _provenance_dict(streamed)

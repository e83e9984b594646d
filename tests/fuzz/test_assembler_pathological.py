"""EpochAssembler under fuzzer-generated pathological feeds.

The streamed path's safety property: whatever the delivery pathology
(all routers late, 100% duplicated streams, a router silent forever),
a sealed epoch never *fabricates* data.  A counter half whose update
was dropped stays ``None`` (an unknown collection refuses to read as
zero), a missing router contributes no keys at all, and duplicates
deduplicate to the exact unperturbed snapshot.
"""

import pytest

from repro.engine import ValidationEngine
from repro.fuzz import CaseGenerator
from repro.stream import EpochAssembler, Perturbations, StreamPipeline, make_feeds

SEED = 11


def _timeline(case_seed: int):
    """Epoch snapshots + inputs for one fuzzer-generated world."""
    spec = CaseGenerator().generate(case_seed)
    epochs = []
    inputs_by_ts = {}
    for index in range(spec.num_epochs):
        outcome = spec.world_for_epoch(index).run_epoch(
            timestamp=spec.timestamp_for(index)
        )
        epochs.append((outcome.snapshot.timestamp, outcome.snapshot))
        inputs_by_ts[outcome.snapshot.timestamp] = outcome.inputs
    return spec, epochs, inputs_by_ts


def _stream(spec, epochs, inputs_by_ts, perturb, extra_routers=()):
    feeds = make_feeds(epochs, perturb=perturb, seed=3)
    assembler = EpochAssembler(
        list(feeds) + list(extra_routers), lateness_s=1.0
    )
    with ValidationEngine(spec.topology, config=spec.hodor_config) as engine:
        pipeline = StreamPipeline(
            list(feeds.values()), assembler, engine, inputs_for=inputs_by_ts
        )
        return pipeline.run()


def _assert_no_fabrication(sealed, source_by_ts):
    """Sealed snapshots only ever contain source data or holes."""
    for epoch in sealed:
        source = source_by_ts[epoch.timestamp]
        for key, got in epoch.snapshot.counters.items():
            assert key in source.counters, f"invented interface {key}"
            want = source.counters[key]
            assert got.rx_rate is None or got.rx_rate == want.rx_rate, key
            assert got.tx_rate is None or got.tx_rate == want.tx_rate, key
        missing = set(epoch.missing)
        for node, _peer in epoch.snapshot.counters:
            assert node not in missing, (
                f"missing router {node} has fabricated counters"
            )


@pytest.mark.parametrize("case_seed", [11, 29])
class TestAllLateRouters:
    def test_partial_epochs_hold_unknowns_not_zeros(self, case_seed):
        spec, epochs, inputs_by_ts = _timeline(case_seed)
        result = _stream(
            spec, epochs, inputs_by_ts, Perturbations(delay=1.0, delay_s=100.0)
        )
        assert result.late_dropped > 0
        _assert_no_fabrication(result.epochs, dict(epochs))

    def test_half_late_never_fabricates(self, case_seed):
        spec, epochs, inputs_by_ts = _timeline(case_seed)
        result = _stream(
            spec, epochs, inputs_by_ts, Perturbations(delay=0.5, delay_s=100.0)
        )
        assert result.late_dropped > 0
        _assert_no_fabrication(result.epochs, dict(epochs))


@pytest.mark.parametrize("case_seed", [11, 29])
class TestFullyDuplicatedStreams:
    def test_dedupe_reproduces_exact_snapshots(self, case_seed):
        spec, epochs, inputs_by_ts = _timeline(case_seed)
        result = _stream(spec, epochs, inputs_by_ts, Perturbations(duplicate=1.0))
        assert result.duplicates > 0
        assert result.partial_epochs == 0
        source_by_ts = dict(epochs)
        assert len(result.epochs) == len(epochs)
        for epoch in result.epochs:
            assert epoch.snapshot == source_by_ts[epoch.timestamp]


class TestSilentRouter:
    def test_expected_but_silent_router_stays_absent(self):
        """A router the assembler expects but that never reports leaves
        partial epochs where it is listed missing and contributes no
        signals -- its state is unknown, not zero."""
        spec, epochs, inputs_by_ts = _timeline(SEED)
        result = _stream(
            spec,
            epochs,
            inputs_by_ts,
            Perturbations(),
            extra_routers=("ghost-router",),
        )
        assert len(result.epochs) == len(epochs)
        assert result.complete_epochs == 0
        source_by_ts = dict(epochs)
        for epoch in result.epochs:
            assert "ghost-router" in epoch.missing
            assert not any(
                node == "ghost-router" for node, _peer in epoch.snapshot.counters
            )
            # Everything the real routers reported still assembles
            # exactly; only the silent router is a hole.
            for key, got in epoch.snapshot.counters.items():
                assert got == source_by_ts[epoch.timestamp].counters[key]

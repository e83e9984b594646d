"""The four workloads: what each runs, measures, traces and checks.

A workload is an object with:

* ``setup(seed, spans)`` -- generate the inputs and build the program
  objects (untimed by the measurements, reported as ``setup_s``);
* ``input_hash(state)`` -- sha256 over the generated inputs;
* ``warm(state)`` -- let caches fill before timing;
* ``measure(state, seconds)`` -- the end-to-end pass, no instrumentation;
* ``trace(state, seconds, setup_spans)`` -- the traced pass behind the
  layer table.

Both passes are closed-loop and single-process (the fleet adds its two
workers) and repeat a fixed unit of work -- a stream pass, a ring cycle,
a fleet run -- until ``seconds`` have gone by, so counts per unit repeat
exactly while throughput is a median over units.  Each pass checks every
verdict it produced against the python-backend oracle.
"""

from __future__ import annotations

import copy
import hashlib
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List

from bench import ROOT, fixtures, sut
from bench.stats import median, percentile
from bench.trace import (
    NullAssembler,
    NullEngine,
    Spans,
    TimedAssembler,
    TimedEngine,
    TimedSink,
    clock,
    delta,
    engine_totals,
)

#: Relative gap allowed between the traced wall of a stream pass and the
#: sum of its separately measured layers.
ADDITIVITY_TOLERANCE = 0.15


@dataclass
class Measured:
    """What one pass hands back to the harness.

    Attributes:
        metrics: Metric name -> value.
        attempted: Epochs the pass tried to validate.
        failed: Epochs not sealed, verdicts that differ from the
            oracle's, tenants not ``done``.
        samples: Sample count behind each pooled percentile.
        notes: Findings worth a line in the report.
        spans: The traced pass's span stores, for ``--out``.
    """

    metrics: Dict[str, float]
    attempted: int
    failed: int
    samples: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    spans: List[Spans] = field(default_factory=list)


def _latency_metrics(verdict_s: List[float]) -> Dict[str, float]:
    return {
        "verdict_ms_p50": percentile(verdict_s, 0.50) * 1e3,
        "verdict_ms_p90": percentile(verdict_s, 0.90) * 1e3,
    }


def _engine_layers(totals: Dict[str, float]) -> Dict[str, float]:
    """Engine rows of the layer table from ``engine_totals`` deltas."""
    epochs = max(1, totals["epochs"])
    units = totals["recomputed"] + totals["reused"]
    return {
        "engine.validate_ms_per_epoch": totals["total"] / epochs * 1e3,
        "engine.collect_ms_per_epoch": totals["collect"] / epochs * 1e3,
        "engine.harden_ms_per_epoch": totals["harden"] / epochs * 1e3,
        "engine.check_ms_per_epoch": totals["check"] / epochs * 1e3,
        "engine.reuse_rate": totals["reused"] / units if units else 0.0,
        "engine.repair_solves": totals["repair_solves"] / epochs,
        "engine.entities_recomputed": totals["recomputed"] / epochs,
    }


def _stream_layers(spans: Spans, wall: float, result) -> Dict[str, float]:
    """Stream rows of the layer table from one traced pipeline run."""
    updates = max(1, result.updates)
    epochs = max(1, len(result.epochs))
    children = sum(
        spans.total(name)
        for name in (
            "stream.assembler.buffer",
            "stream.assembler.idle",
            "stream.assembler.seal",
            "engine.validate_events",
            "history.sink.record",
            "fleet.digest",
            "stream.ingest.teardown",
        )
    )
    return {
        "stream.ingest.residual_us_per_update": (wall - children) / updates * 1e6,
        "stream.ingest.teardown_us_per_update": spans.total("stream.ingest.teardown")
        / updates
        * 1e6,
        "stream.assembler.buffer_us_per_update": spans.mean("stream.assembler.buffer") * 1e6,
        "stream.assembler.seal_ms_per_epoch": spans.total("stream.assembler.seal")
        / epochs
        * 1e3,
        "stream.assembler.updates": result.updates,
        "stream.assembler.duplicates": result.duplicates,
        "stream.assembler.late_dropped": result.late_dropped,
        "stream.assembler.partial_epochs": result.partial_epochs,
        "history.sink.record_ms_per_epoch": spans.total("history.sink.record") / epochs * 1e3,
        "fleet.digest.ms_per_epoch": spans.total("fleet.digest") / epochs * 1e3,
    }


def _refold_ms_per_epoch(epochs) -> Dict[str, float]:
    """Re-fold sealed events through a warmed decoder, outside the run."""
    folder = sut.folder()
    walls = []
    for _repeat in range(4):  # the first repeat fills the decode cache
        start = clock()
        for epoch in epochs:
            folder.fold(epoch.events, epoch.timestamp)
        walls.append(clock() - start)
    return {
        "stream.fold.ms_per_epoch": median(walls[1:]) / max(1, len(epochs)) * 1e3,
        "stream.fold.cached_paths": folder.cached_paths,
    }


def _feed_layers(spans: Spans, feed_copies) -> Dict[str, float]:
    """Feed rows: build cost from set-up spans, emit cost by draining."""
    start = clock()
    deliveries = sum(len(sut.drain(feed)) for feed in feed_copies)
    drain_s = clock() - start
    return {
        "stream.feed.deliveries": deliveries,
        "stream.feed.build_us_per_update": spans.mean("stream.feed.build") / deliveries * 1e6,
        "stream.feed.next_event_us": drain_s / deliveries * 1e6,
    }


def _timed_run(pipe, spans: Spans = None, run=None):
    """Run a pipeline to completion: ``(wall_s, result)``.

    ``run`` defaults to the pipeline's own blocking entry point.
    """
    run = run or type(pipe).run
    if spans is None:
        start = clock()
        result = run(pipe)
        return clock() - start, result
    with spans.span("stream.ingest.run") as row:
        result = run(pipe)
    # What run() still does after its last call into another layer.
    spans.bump("stream.ingest.teardown", row[2] - spans.last_end)
    return row[2] - row[1], result


def _units(seconds: float):
    """Yield 0, 1, 2, ... until ``seconds`` have gone by.  A unit of work
    that has started is finished, so a pass overruns by at most one."""
    deadline = clock() + seconds
    done = 0
    while done == 0 or clock() < deadline:
        yield done
        done += 1


def _copies(feeds) -> list:
    """Unconsumed cursors over the deliveries built at set-up: building a
    feed costs as much per update as the pipeline it feeds."""
    return [copy.copy(feed) for feed in feeds.values()]


# ----------------------------------------------------------------------
# stream_fresh
# ----------------------------------------------------------------------


class StreamFresh:
    name = "stream_fresh"
    nodes = 80
    epochs = 8
    lateness_s = 2.0

    def setup(self, seed: int, spans: Spans):
        with spans.span("fixture.build"):
            fixture = fixtures.fresh_timeline(self.nodes, self.epochs, seed)
        with spans.span("stream.feed.build"):
            feeds = sut.feeds(fixture.epochs, seed)
        engine = sut.engine(fixture.topology)
        with spans.span("engine.first_epoch"):
            engine.validate(fixture.epochs[0][1], fixture.inputs[0])
        return SimpleNamespace(fixture=fixture, feeds=feeds, engine=engine)

    def input_hash(self, state) -> str:
        digest = fixtures.hash_snapshots(state.fixture.epochs)
        for feed in _copies(state.feeds):
            fixtures.hash_deliveries(sut.drain(feed), digest)
        return digest.hexdigest()

    def warm(self, state) -> None:
        self._pass(state)

    def _pass(self, state, spans: Spans = None, null: bool = False):
        """One pipeline run over the whole fixture: ``(wall_s, result)``."""
        inputs = state.fixture.inputs[0]
        if null:
            assembler, engine = NullAssembler(), NullEngine()
        else:
            assembler = sut.assembler(list(state.feeds), self.lateness_s)
            engine = state.engine
            if spans is not None:
                assembler = TimedAssembler(assembler, spans)
                engine = TimedEngine(engine, spans)
        pipe = sut.pipeline(_copies(state.feeds), assembler, engine, lambda _ts: inputs)
        return _timed_run(pipe, spans)

    def _fingerprints(self, result) -> List[str]:
        return [
            sut.digest_report(self.name, epoch, report).fingerprint
            for epoch, report in zip(result.epochs, result.reports)
        ]

    def _oracle_mismatches(self, state, result, fingerprints) -> int:
        """Sealed events re-validated by the python-backend oracle."""
        oracle = sut.engine(state.fixture.topology, oracle=True)
        inputs = state.fixture.inputs[0]
        bad = 0
        for epoch, fingerprint in zip(result.epochs, fingerprints):
            report = oracle.validate_events(epoch.events, epoch.timestamp, inputs)
            bad += sut.digest_report(self.name, epoch, report).fingerprint != fingerprint
        return bad

    def _checked_passes(self, state, seconds: float):
        """Untraced passes until ``seconds`` are up, each one checked."""
        passes = []
        first = None
        failed = 0
        for _unit in _units(seconds):
            wall, result = self._pass(state)
            fingerprints = self._fingerprints(result)
            if first is None:
                first = fingerprints
                failed += self._oracle_mismatches(state, result, fingerprints)
            failed += self.epochs - len(result.epochs)
            failed += sum(a != b for a, b in zip(fingerprints, first))
            passes.append((wall, result))
        return passes, failed

    def measure(self, state, seconds: float) -> Measured:
        passes, failed = self._checked_passes(state, seconds)
        verdict_s = [s for _wall, r in passes for s in r.epoch_latency_s]
        metrics = {
            "updates_per_s": median(r.updates / wall for wall, r in passes),
            "epochs_per_s": median(len(r.epochs) / wall for wall, r in passes),
            **_latency_metrics(verdict_s),
        }
        return Measured(
            metrics,
            attempted=self.epochs * len(passes),
            failed=failed,
            samples={"passes": len(passes), "verdict_ms": len(verdict_s)},
        )

    def _traced_round(self, state, untraced_wall: float, untraced) -> SimpleNamespace:
        """A traced pass, a null-ingest pass and a re-fold: one row of the
        layer table, with the parts that should add up to its wall."""
        engine = state.engine
        spans = Spans()
        before = engine_totals(engine)
        wall, traced = self._pass(state, spans=spans)
        totals = delta(engine_totals(engine), before)
        null_wall, null = self._pass(state, null=True)

        row = _stream_layers(spans, wall, traced)
        row.update(_engine_layers(totals))
        row.update(_refold_ms_per_epoch(traced.epochs))
        row["stream.ingest.null_us_per_update"] = null_wall / max(1, null.updates) * 1e6
        row["trace.overhead_share"] = (wall - untraced_wall) / untraced_wall

        # Additivity: the layers measured apart must add up to the wall
        # measured whole, or the table explains nothing.
        epochs = len(traced.epochs)
        parts = {
            "stream.ingest (null pass)": null_wall,
            "stream.assembler": sum(
                spans.total(f"stream.assembler.{call}") for call in ("buffer", "idle", "seal")
            ),
            "stream.fold (re-fold)": row["stream.fold.ms_per_epoch"] * epochs / 1e3,
            "engine.validate": totals["total"],
            "stream.ingest teardown": spans.total("stream.ingest.teardown"),
        }
        row["trace.additivity_gap_share"] = (wall - sum(parts.values())) / wall
        failed = (self.epochs - epochs) + (
            self._fingerprints(traced) != self._fingerprints(untraced)
        )
        return SimpleNamespace(row=row, parts=parts, wall=wall, spans=spans, failed=failed)

    def trace(self, state, seconds: float, setup_spans: Spans) -> Measured:
        """Rounds of (untraced, traced, null-ingest) passes; the table is
        the median over rounds."""
        rounds = []
        verdict_s: List[float] = []
        seal_s: List[float] = []
        failed = 0
        for _unit in _units(seconds):
            passes, bad = self._checked_passes(state, 0.0)
            untraced_wall, untraced = passes[0]
            verdict_s += untraced.epoch_latency_s
            seal_s += [epoch.assembly_latency_s for epoch in untraced.epochs]
            rounds.append(self._traced_round(state, untraced_wall, untraced))
            failed += bad + rounds[-1].failed

        last = rounds[-1]
        metrics = {
            # Counts repeat exactly from round to round; times do not.
            name: value if isinstance(value, int) else median(r.row[name] for r in rounds)
            for name, value in last.row.items()
        }
        metrics.update(_feed_layers(setup_spans, _copies(state.feeds)))
        metrics["engine.first_epoch_ms"] = setup_spans.mean("engine.first_epoch") * 1e3
        start = clock()
        self._fingerprints(untraced)
        metrics["fleet.digest.ms_per_epoch"] = (clock() - start) / len(untraced.epochs) * 1e3
        metrics["stream.seal_ms_p50"] = percentile(seal_s, 0.50) * 1e3
        metrics["stream.tail.seal_ms_p90"] = percentile(seal_s, 0.90) * 1e3
        metrics["stream.tail.verdict_ms_p90"] = percentile(verdict_s, 0.90) * 1e3

        gap = metrics["trace.additivity_gap_share"]
        notes = [
            f"additivity, last traced {self.epochs}-epoch pass of {last.wall * 1e3:.0f} ms: "
            + ", ".join(f"{name} {part * 1e3:.0f} ms" for name, part in last.parts.items())
            + f"; unexplained (median over rounds) {gap:+.1%}, tolerance {ADDITIVITY_TOLERANCE:.0%}"
        ]
        if abs(gap) > ADDITIVITY_TOLERANCE:
            failed += 1
            notes.append("ADDITIVITY CHECK FAILED: the layer table does not explain the wall")
        return Measured(
            metrics,
            attempted=2 * self.epochs * len(rounds),
            failed=failed,
            samples={"rounds": len(rounds), "verdict_ms": len(verdict_s), "seal_ms": len(seal_s)},
            notes=notes,
            spans=[r.spans for r in rounds],
        )


# ----------------------------------------------------------------------
# engine_scale / engine_faulty
# ----------------------------------------------------------------------


class EngineRing:
    """A ring of distinct snapshots cycled through ``validate``; no
    stream layer runs.

    Args:
        name: Workload name.
        build: ``seed -> Fixture`` for the ring.
        oracle_every: Check every n-th ring slot against the oracle.
    """

    def __init__(self, name: str, build, oracle_every: int) -> None:
        self.name = name
        self._build = build
        self._oracle_every = oracle_every

    def setup(self, seed: int, spans: Spans):
        with spans.span("fixture.build"):
            fixture = self._build(seed)
        engine = sut.engine(fixture.topology)
        with spans.span("engine.first_epoch"):
            engine.validate(fixture.epochs[0][1], fixture.inputs[0])
        slots = [
            sut.batch_epoch(timestamp, updates)
            for (timestamp, _snapshot), updates in zip(fixture.epochs, fixture.updates)
        ]
        return SimpleNamespace(fixture=fixture, engine=engine, slots=slots, expected=None)

    def input_hash(self, state) -> str:
        return fixtures.hash_snapshots(state.fixture.epochs).hexdigest()

    def warm(self, state) -> None:
        """One cycle primes the delta state and fixes each slot's
        expected fingerprint; the oracle vouches for those later."""
        state.expected = [None] * len(state.slots)
        self._cycle(state, state.engine)

    def _cycle(self, state, engine, spans: Spans = None):
        """Validate every ring slot once: ``(call_seconds, mismatches)``."""
        fixture = state.fixture
        seconds = []
        bad = 0
        for index, ((_ts, snapshot), inputs) in enumerate(zip(fixture.epochs, fixture.inputs)):
            start = clock()
            report = engine.validate(snapshot, inputs)
            seconds.append(clock() - start)
            start = clock()
            fingerprint = sut.digest_report(self.name, state.slots[index], report).fingerprint
            if spans is not None:
                spans.record("fleet.digest", start, clock())
            if state.expected[index] is None:
                state.expected[index] = fingerprint
            bad += fingerprint != state.expected[index]
        return seconds, bad

    def _oracle_mismatches(self, state) -> int:
        fixture = state.fixture
        oracle = sut.engine(fixture.topology, oracle=True)
        bad = 0
        for index in range(0, len(state.slots), self._oracle_every):
            report = oracle.validate(fixture.epochs[index][1], fixture.inputs[index])
            fingerprint = sut.digest_report(self.name, state.slots[index], report).fingerprint
            bad += fingerprint != state.expected[index]
        return bad

    def measure(self, state, seconds: float) -> Measured:
        cycles = []
        failed = 0
        for _unit in _units(seconds):
            call_s, bad = self._cycle(state, state.engine)
            cycles.append(call_s)
            failed += bad
        failed += self._oracle_mismatches(state)
        ring_updates = sum(state.fixture.updates)
        verdict_s = [s for call_s in cycles for s in call_s]
        metrics = {
            "updates_per_s": median(ring_updates / sum(call_s) for call_s in cycles),
            "epochs_per_s": median(len(call_s) / sum(call_s) for call_s in cycles),
            **_latency_metrics(verdict_s),
        }
        return Measured(
            metrics,
            attempted=len(verdict_s),
            failed=failed,
            samples={"cycles": len(cycles), "verdict_ms": len(verdict_s)},
        )

    def trace(self, state, seconds: float, setup_spans: Spans) -> Measured:
        """Alternate untraced and traced ring cycles."""
        engine = state.engine
        spans = Spans()
        timed = TimedEngine(engine, spans)
        untraced_walls, traced_walls = [], []
        failed = 0
        # The stage seconds are the engine's own, so cycles of both kinds
        # count towards them.
        before = engine_totals(engine)
        for _unit in _units(seconds):
            call_s, bad = self._cycle(state, engine)
            untraced_walls.append(sum(call_s))
            failed += bad
            with spans.span("bench.ring_cycle"):
                call_s, bad = self._cycle(state, timed, spans)
            traced_walls.append(sum(call_s))
            failed += bad
        metrics = _engine_layers(delta(engine_totals(engine), before))
        failed += self._oracle_mismatches(state)
        metrics["engine.first_epoch_ms"] = setup_spans.mean("engine.first_epoch") * 1e3
        metrics["fleet.digest.ms_per_epoch"] = spans.mean("fleet.digest") * 1e3
        metrics["trace.overhead_share"] = (
            median(traced_walls) - median(untraced_walls)
        ) / median(untraced_walls)
        cycles = len(traced_walls) + len(untraced_walls)
        return Measured(
            metrics,
            attempted=cycles * len(state.slots),
            failed=failed,
            samples={"cycles": cycles},
            spans=[spans],
        )


# ----------------------------------------------------------------------
# fleet_history
# ----------------------------------------------------------------------


@contextmanager
def _scratch_dir():
    """A throwaway directory inside the checkout for sqlite stores."""
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:  # another run still has a directory in it
            pass


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class FleetHistory:
    name = "fleet_history"
    tenants = 12
    nodes = 20
    epochs = 50
    workers = 2
    #: Tenants re-run standalone on the python backend as the oracle.
    oracle_tenants = 2

    def setup(self, seed: int, spans: Spans):
        """The fleet receives only specs; its workers rebuild each
        tenant's fixture inside the timed region.  Set-up builds the same
        fixtures in-process so the traffic can be hashed and priced."""
        specs = sut.tenant_specs(self.tenants, self.nodes, self.epochs, seed)
        workloads = []
        for spec in specs:
            with spans.span("fleet.scenario.build_workload"):
                workloads.append(sut.build_workload(spec))
        return SimpleNamespace(specs=specs, workloads=workloads)

    def input_hash(self, state) -> str:
        digest = hashlib.sha256()
        for spec, workload in zip(state.specs, state.workloads):
            digest.update(repr(spec).encode("utf-8"))
            fixtures.hash_snapshots(workload.epochs, digest)
        return digest.hexdigest()

    def warm(self, state) -> None:
        """Nothing to warm: every fleet run forks fresh workers."""

    def _fleet_run(self, state):
        """One supervisor run to completion: ``(wall_s, result, store_bytes)``."""
        with _scratch_dir() as store_dir:
            supervisor = sut.fleet(state.specs, store_dir, self.workers)
            start = clock()
            result = supervisor.run()
            wall = clock() - start
            return wall, result, _dir_bytes(store_dir)

    def _run_failures(self, result, first) -> int:
        """Tenants not done, epochs without a digest, digests that moved."""
        failed = 0
        for tenant, summary in result.tenants.items():
            failed += summary.status != "done"
            failed += max(0, self.epochs - len(summary.digests))
            failed += sum(
                a.fingerprint != b.fingerprint
                for a, b in zip(summary.digests, first.tenants[tenant].digests)
            )
        return failed

    def _oracle_mismatches(self, state, result) -> int:
        bad = 0
        for spec in state.specs[: self.oracle_tenants]:
            reference = sut.run_tenant(sut.oracle_spec(spec))
            fleet_digests = result.tenants[spec.tenant].digests
            bad += abs(len(reference.digests) - len(fleet_digests))
            bad += sum(
                a.fingerprint != b.fingerprint for a, b in zip(reference.digests, fleet_digests)
            )
        return bad

    def measure(self, state, seconds: float) -> Measured:
        runs = []
        failed = 0
        for _unit in _units(seconds):
            wall, result, _bytes = self._fleet_run(state)
            runs.append((wall, result))
            failed += self._run_failures(result, runs[0][1])
        failed += self._oracle_mismatches(state, runs[0][1])
        verdict_s = [
            s for _wall, r in runs for summary in r.tenants.values() for s in summary.latencies_s
        ]
        metrics = {
            "updates_per_s": median(r.total_updates / wall for wall, r in runs),
            "epochs_per_s": median(r.total_epochs_sealed / wall for wall, r in runs),
            **_latency_metrics(verdict_s),
        }
        return Measured(
            metrics,
            attempted=self.tenants * self.epochs * len(runs),
            failed=failed,
            samples={"fleet_runs": len(runs), "verdict_ms": len(verdict_s)},
        )

    def _traced_tenant(self, spec, store_path: str, spans: Spans):
        """One tenant wired as ``run_tenant`` wires it, with every injected
        collaborator behind a timing proxy."""
        with spans.span("fleet.scenario.build_workload"):
            workload = sut.build_workload(spec)
        with spans.span("stream.feed.build"):
            feeds = sut.feeds(workload.epochs, spec.seed)
        pristine = _copies(feeds)
        digests = []

        def observe(epoch, report, latency_s: float) -> None:
            start = clock()
            digests.append(sut.digest_report(spec.tenant, epoch, report, latency_s))
            spans.record("fleet.digest", start, clock())

        engine = sut.engine(workload.topology, config=workload.hodor_config)
        sink = sut.history_sink(store_path)
        try:
            pipe = sut.pipeline(
                feeds.values(),
                TimedAssembler(sut.assembler(list(feeds), spec.lateness_s), spans),
                TimedEngine(engine, spans),
                workload.inputs_for,
                history=TimedSink(sink, spans),
                on_epoch=observe,
            )
            wall, result = _timed_run(pipe, spans, sut.run_in_worker_loop)
        finally:
            sink.close()
        return SimpleNamespace(
            wall=wall, result=result, digests=digests, engine=engine, feeds=pristine
        )

    def trace(self, state, seconds: float, setup_spans: Spans) -> Measured:
        """One fleet run, then the same tenants in-process: standalone
        ``run_tenant`` (the single-process baseline) and one tenant with
        timing proxies around its collaborators."""
        deadline = clock() + seconds
        spans = Spans()
        fleet_wall, fleet_result, store_bytes = self._fleet_run(state)
        failed = self._run_failures(fleet_result, fleet_result)
        digests = sum(len(s.digests) for s in fleet_result.tenants.values())

        with _scratch_dir() as store_dir:
            # The first in-process tenant pays for cold code paths, so the
            # traced tenant is compared with the second.
            tenant_walls = []
            for index, spec in enumerate(state.specs):
                if len(tenant_walls) >= 2 and clock() >= deadline:
                    break
                with spans.span("fleet.scenario.run_tenant") as row:
                    sut.run_tenant(spec, store_path=f"{store_dir}/standalone-{index}.sqlite")
                tenant_walls.append(row[2] - row[1])

            spec = state.specs[1]
            with spans.span("bench.traced_tenant") as row:
                traced = self._traced_tenant(spec, f"{store_dir}/traced.sqlite", spans)
            traced_total = row[2] - row[1]
            failed += [d.fingerprint for d in traced.digests] != [
                d.fingerprint for d in fleet_result.tenants[spec.tenant].digests
            ]
            null_wall, null = _timed_run(
                sut.pipeline(
                    [copy.copy(feed) for feed in traced.feeds],
                    NullAssembler(),
                    NullEngine(),
                    lambda _ts: None,
                ),
                run=sut.run_in_worker_loop,
            )

        result = traced.result
        metrics = _stream_layers(spans, traced.wall, result)
        first_validate = next(r for r in spans.rows if r[0] == "engine.validate_events")
        metrics["engine.first_epoch_ms"] = (first_validate[2] - first_validate[1]) * 1e3
        metrics.update(_engine_layers(engine_totals(traced.engine)))
        metrics.update(_refold_ms_per_epoch(result.epochs))
        metrics.update(_feed_layers(spans, traced.feeds))
        metrics["stream.ingest.null_us_per_update"] = null_wall / max(1, null.updates) * 1e6
        seal_s = [epoch.assembly_latency_s for epoch in result.epochs]
        metrics["stream.seal_ms_p50"] = percentile(seal_s, 0.50) * 1e3
        metrics["stream.tail.seal_ms_p90"] = percentile(seal_s, 0.90) * 1e3
        metrics["stream.tail.verdict_ms_p90"] = percentile(result.epoch_latency_s, 0.90) * 1e3
        metrics["history.store.bytes_per_epoch"] = store_bytes / max(1, digests)
        metrics["fleet.scenario.build_workload_ms_per_tenant"] = (
            setup_spans.mean("fleet.scenario.build_workload") * 1e3
        )
        metrics["fleet.scenario.run_tenant_ms"] = median(tenant_walls) * 1e3
        metrics["fleet.supervisor.overhead_s"] = (
            fleet_wall - median(tenant_walls) * self.tenants / self.workers
        )
        metrics["fleet.supervisor.digests"] = digests
        metrics["fleet.supervisor.crashes"] = fleet_result.crashes
        metrics["fleet.supervisor.reschedules"] = sum(
            s.reschedules for s in fleet_result.tenants.values()
        )
        metrics["trace.overhead_share"] = (traced_total - tenant_walls[1]) / tenant_walls[1]
        return Measured(
            metrics,
            attempted=self.tenants * self.epochs,
            failed=failed,
            samples={"fleet_runs": 1, "standalone_tenants": len(tenant_walls)},
            notes=[
                f"fleet wall {fleet_wall:.2f} s for {self.tenants} tenants on "
                f"{self.workers} workers; standalone run_tenant median "
                f"{median(tenant_walls) * 1e3:.0f} ms"
            ],
            spans=[spans],
        )


def _scale_ring(seed: int):
    return fixtures.fresh_timeline(500, 24, seed, bounded_degree=True)


def _faulty_ring(seed: int):
    return fixtures.faulty_timeline(80, 60, seed)


WORKLOADS = {
    workload.name: workload
    for workload in (
        StreamFresh(),
        EngineRing("engine_scale", _scale_ring, oracle_every=3),
        EngineRing("engine_faulty", _faulty_ring, oracle_every=1),
        FleetHistory(),
    )
}

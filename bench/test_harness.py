"""Tests of the benchmark harness itself.

Run with ``python -m pytest bench -q``; tier-1 (``testpaths = tests``)
does not collect this file.  The workloads are shrunk here -- the tests
are about the harness's bookkeeping, not about the numbers.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, fixtures, harness, sut
from bench.stats import percentile
from bench.workloads import WORKLOADS, EngineRing

SPEC = harness.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def small(monkeypatch):
    """Every workload at a size that runs in about a second."""
    monkeypatch.setattr(WORKLOADS["stream_fresh"], "nodes", 12, raising=False)
    monkeypatch.setattr(WORKLOADS["stream_fresh"], "epochs", 4, raising=False)
    monkeypatch.setattr(WORKLOADS["fleet_history"], "tenants", 3, raising=False)
    monkeypatch.setattr(WORKLOADS["fleet_history"], "nodes", 8, raising=False)
    monkeypatch.setattr(WORKLOADS["fleet_history"], "epochs", 6, raising=False)
    monkeypatch.setitem(
        WORKLOADS,
        "engine_scale",
        EngineRing(
            "engine_scale",
            lambda seed: fixtures.fresh_timeline(30, 4, seed, bounded_degree=True),
            oracle_every=2,
        ),
    )
    monkeypatch.setitem(
        WORKLOADS,
        "engine_faulty",
        EngineRing(
            "engine_faulty", lambda seed: fixtures.faulty_timeline(12, 4, seed), oracle_every=1
        ),
    )


def test_percentile_is_nearest_rank():
    samples = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert percentile(samples, 0.30) == 20.0
    assert percentile(samples, 0.40) == 20.0
    assert percentile(samples, 0.50) == 35.0
    assert percentile(samples, 1.00) == 50.0
    assert percentile([7.0], 0.99) == 7.0
    assert percentile(list(range(1, 101)), 0.90) == 90
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(samples, 0.0)


def test_fixtures_are_a_function_of_the_seed():
    def digest(seed):
        fresh = fixtures.fresh_timeline(12, 3, seed)
        faulty = fixtures.faulty_timeline(12, 3, seed)
        events = [e for feed in sut.feeds(fresh.epochs, seed).values() for e in sut.drain(feed)]
        sha = fixtures.hash_snapshots(fresh.epochs + faulty.epochs)
        return fixtures.hash_deliveries(events, sha).hexdigest()

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_fresh_fixture_restamps_every_counter():
    fixture = fixtures.fresh_timeline(12, 8, seed=1)
    for timestamp, snapshot in fixture.epochs:
        assert {r.timestamp for r in snapshot.counters.values()} == {timestamp}


def test_benchmark_json_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_every_listed_metric_is_printed_by_a_run(small):
    produced = set()
    for name in WORKLOADS:
        for traced in (False, True):
            run = harness.run(name, seed=2, seconds=0.05, traced=traced, setups=1)
            assert run.measured.failed == 0, (name, traced, run.measured.notes)
            listed = harness.listed_metrics(run, SPEC)  # raises on an unlisted name
            report = harness.render(run, SPEC)
            line = json.loads(harness.result_line(run, SPEC))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["attempted"] >= 1
            for metric, entry in listed.items():
                if metric in run.measured.metrics:
                    assert metric in report
                if not traced:
                    assert entry["value"] > 0, (name, metric)
            produced.update(run.measured.metrics)
    assert produced == {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def test_a_planted_wrong_verdict_is_counted_as_failed(small, monkeypatch):
    real_engine = sut.engine

    class Tampering:
        """Calls the demand input invalid on one epoch, every time."""

        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def validate(self, snapshot, inputs, topology=None):
            report = self._inner.validate(snapshot, inputs, topology=topology)
            if snapshot.timestamp == 10.0:
                verdict = report.verdicts["demand"]
                report.verdicts["demand"] = dataclasses.replace(
                    verdict, valid=not verdict.valid
                )
            return report

    def planted(topology, config=None, oracle=False):
        engine = real_engine(topology, config=config, oracle=oracle)
        return engine if oracle else Tampering(engine)

    monkeypatch.setattr(sut, "engine", planted)
    run = harness.run("engine_faulty", seed=2, seconds=0.05, traced=False, setups=1)
    assert run.measured.failed >= 1
    assert run.failed_share > 0
    assert json.loads(harness.result_line(run, SPEC))["correct"] is False


def test_driver_invocation_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "engine_faulty", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(set(entry) == {"value", "unit"} for entry in result["metrics"].values())


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "engine_faulty", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

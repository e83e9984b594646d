"""E9 / always-on feasibility: validation cost vs network size.

Section 3.2 envisions Hodor running continuously against every input
epoch.  This bench times the full pipeline (collect + harden + all
three dynamic checks) over growing random WANs and the bundled
realistic topologies, asserting a full pass stays in interactive
territory (far below any telemetry refresh interval).
"""

import pytest

from repro.control.demand_service import records_from_matrix
from repro.control.infra import ControlPlane
from repro.core import Hodor
from repro.experiments import ScaleStudy, format_table
from repro.net import NetworkSimulator, gravity_demand
from repro.telemetry import Jitter, ProbeEngine, TelemetryCollector
from repro.topologies import abilene, b4, geant


def _setup(topology, total):
    demand = gravity_demand(topology.node_names(), total=total, seed=1)
    truth = NetworkSimulator(topology, demand, strategy="single").run()
    collector = TelemetryCollector(Jitter(0.005, seed=2), probe_engine=ProbeEngine(seed=3))
    snapshot = collector.collect(truth)
    plane = ControlPlane(topology)
    inputs = plane.compute_inputs(snapshot, records_from_matrix(demand, seed=4))
    return snapshot, inputs


@pytest.mark.parametrize(
    "name,factory,total",
    [("abilene", abilene, 20.0), ("b4", b4, 300.0), ("geant", geant, 30.0)],
)
def test_validate_realistic_topologies(benchmark, name, factory, total):
    topology = factory()
    snapshot, inputs = _setup(topology, total)
    hodor = Hodor(topology)
    report = benchmark(lambda: hodor.validate(snapshot, inputs))
    assert report.all_valid
    benchmark.extra_info["nodes"] = topology.num_nodes
    benchmark.extra_info["links"] = topology.num_links


def test_scaling_sweep(benchmark, write_result):
    study = ScaleStudy(seed=0, repetitions=3)
    rows = benchmark.pedantic(
        lambda: study.run(sizes=(10, 20, 40, 80)), rounds=1, iterations=1
    )
    # Always-on budget: one pass well under a second even at 80 nodes.
    assert rows[-1].validate_ms < 1000.0

    table = format_table(
        ["nodes", "links", "signals", "harden (ms)", "validate (ms)"],
        [
            [row.nodes, row.links, row.signals, f"{row.harden_ms:.1f}", f"{row.validate_ms:.1f}"]
            for row in rows
        ],
    )
    write_result("E9_scale", table)
    benchmark.extra_info["validate_ms_at_80"] = rows[-1].validate_ms


def test_engine_vs_serial_sweep(benchmark, write_result):
    """The always-on engine against the stateless per-epoch pipeline.

    The serial column builds a fresh ``Hodor`` per epoch (every epoch
    pays topology setup); the engine column replays the same stream
    through one long-lived ``ValidationEngine``, which memoizes the
    topology-derived structures and takes a cache hit on every epoch
    after the first.
    """
    study = ScaleStudy(seed=0)
    epochs = 5
    rows = benchmark.pedantic(
        lambda: study.run_engine(sizes=(10, 20, 40, 80), epochs=epochs),
        rounds=1,
        iterations=1,
    )

    table = format_table(
        ["nodes", "links", "epochs", "serial (ms)", "engine (ms)", "cache hits"],
        [
            [
                row.nodes,
                row.links,
                row.epochs,
                f"{row.serial_ms:.1f}",
                f"{row.engine_ms:.1f}",
                row.cache_hits,
            ]
            for row in rows
        ],
    )
    write_result("E9_engine", table)

    at_80 = rows[-1]
    # Acceptance bars: the engine amortizes topology setup, so at 80
    # nodes it must beat the per-epoch serial pipeline, and an
    # unchanged topology must hit the cache on every epoch but the
    # first.
    assert at_80.engine_ms < at_80.serial_ms
    assert at_80.cache_hits >= epochs - 1
    benchmark.extra_info["serial_ms_at_80"] = at_80.serial_ms
    benchmark.extra_info["engine_ms_at_80"] = at_80.engine_ms

"""Seeded input generation for the benchmark workloads.

Everything a workload feeds the program is generated here from the
``--seed`` argument with the repository's own network simulator
(``repro.net`` / ``repro.telemetry`` / ``repro.control`` /
``repro.faults``); nothing is imported from ``repro.experiments`` or
``benchmarks/``, so deleting the experiment drivers never needs an edit
here.

The one deliberate difference from the fixture E15/E18/E19 share
(``run_soak``, ``fleet.scenario.build_workload``): :func:`next_epoch`
re-stamps *every* counter reading to its epoch's collection instant
(sample-mode telemetry).  The shared fixture re-stamps only churned
links, so with 10 s epoch spacing every un-churned reading is older
than ``max_staleness_s`` = 60 s from epoch 7 on and the validator spends
its time repairing a ~90% stale network instead of validating a fresh
one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.control.demand_service import records_from_matrix
from repro.control.infra import ControlPlane
from repro.faults import FaultInjector, MissingTelemetry, RandomCounterCorruption
from repro.net.demand import DemandMatrix, gravity_demand
from repro.net.simulation import NetworkSimulator
from repro.net.topology import EXTERNAL_PEER
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.counters import Jitter
from repro.telemetry.probes import ProbeEngine
from repro.telemetry.snapshot import NetworkSnapshot
from repro.topologies.synthetic import waxman_topology

Epochs = List[Tuple[float, NetworkSnapshot]]

#: The network is part of a workload's definition, not of its traffic: an
#: operator has one WAN and many days of telemetry from it.  Waxman link
#: counts move by +-7% with the topology seed at 80 nodes and per-epoch
#: cost moves with them, so ``--seed`` draws the demand, jitter, probes,
#: churn, delivery perturbations and fault placement, never the graph.
TOPOLOGY_SEED = 0


@dataclass
class Fixture:
    """One workload's generated inputs.

    Attributes:
        topology: The reference topology handed to the engine.
        epochs: ``(timestamp, snapshot)`` per epoch, ascending.
        inputs: Controller inputs per epoch (aligned with ``epochs``).
        updates: Telemetry updates each epoch's snapshot carries.
    """

    topology: object
    epochs: Epochs
    inputs: List[object]
    updates: List[int]


def _base(nodes: int, seed: int, bounded_degree: bool):
    """Topology, ground-truth collection and the control plane's view.

    ``bounded_degree`` keeps mean degree at the 80-node level and offers
    O(N) demand, so a 500-node network stays buildable in about a
    second; the dense form routes gravity demand between every pair.
    """
    if bounded_degree:
        topology = waxman_topology(
            nodes, alpha=min(0.6, 48.0 / nodes), seed=TOPOLOGY_SEED
        )
        names = topology.node_names()
        demand = DemandMatrix(names)
        for i, src in enumerate(names):
            for step in (1, 2):
                demand[src, names[(i + step) % len(names)]] = 2.0 + (i % 5)
    else:
        topology = waxman_topology(nodes, seed=TOPOLOGY_SEED)
        demand = gravity_demand(topology.node_names(), total=4.0 * nodes, seed=seed)
    truth = NetworkSimulator(topology, demand, strategy="single").run()
    collector = TelemetryCollector(
        Jitter(0.005, seed=seed), probe_engine=ProbeEngine(seed=seed)
    )
    base = collector.collect(truth)
    plane = ControlPlane(topology)
    inputs = plane.compute_inputs(base, records_from_matrix(demand, seed=seed))
    return topology, base, plane, inputs


def next_epoch(
    snapshot: NetworkSnapshot, churn: float, rng: random.Random, timestamp: float
) -> NetworkSnapshot:
    """The next collection: ``churn`` of links re-measured, all re-stamped.

    A churned link scales all four of its directed counters by one
    factor, so R1 symmetry holds and churn never fabricates corruption.
    """
    fresh = snapshot.copy()
    fresh.timestamp = timestamp
    by_link = {}
    for key in fresh.counters:
        node, peer = key
        if peer != EXTERNAL_PEER:
            by_link.setdefault(frozenset((node, peer)), []).append(key)
    for edges in by_link.values():
        if rng.random() >= churn:
            continue
        factor = 0.9 + 0.2 * rng.random()
        for edge in edges:
            reading = fresh.counters[edge]
            if isinstance(reading.rx_rate, float):
                reading.rx_rate *= factor
            if isinstance(reading.tx_rate, float):
                reading.tx_rate *= factor
    for reading in fresh.counters.values():
        reading.timestamp = timestamp
    return fresh


def fresh_timeline(
    nodes: int,
    epochs: int,
    seed: int,
    spacing_s: float = 10.0,
    churn: float = 0.10,
    bounded_degree: bool = False,
) -> Fixture:
    """``epochs`` fault-free collections, one set of controller inputs."""
    topology, base, _plane, inputs = _base(nodes, seed, bounded_degree)
    rng = random.Random(seed)
    snapshot = next_epoch(base, 0.0, rng, 0.0)
    timeline: Epochs = [(0.0, snapshot)]
    for index in range(1, epochs):
        timestamp = index * spacing_s
        snapshot = next_epoch(snapshot, churn, rng, timestamp)
        timeline.append((timestamp, snapshot))
    return Fixture(
        topology=topology,
        epochs=timeline,
        inputs=[inputs] * epochs,
        updates=[s.signal_count() for _ts, s in timeline],
    )


def faulty_timeline(
    nodes: int, epochs: int, seed: int, spacing_s: float = 10.0, churn: float = 0.10
) -> Fixture:
    """Every epoch carries the paper's Section 2.1 router faults.

    Eight counters read zero, eight lose their tx value and one router
    (rotating) goes silent; the control plane reads the same corrupted
    telemetry the validator does, as in production.
    """
    topology, base, plane, clean_inputs = _base(nodes, seed, bounded_degree=False)
    names = topology.node_names()
    rng = random.Random(seed)
    clean = next_epoch(base, 0.0, rng, 0.0)
    timeline: Epochs = []
    inputs = []
    for index in range(epochs):
        timestamp = index * spacing_s
        if index:
            clean = next_epoch(clean, churn, rng, timestamp)
        injector = FaultInjector(
            [
                RandomCounterCorruption(8, "zero", "rx"),
                RandomCounterCorruption(8, "missing", "tx"),
                MissingTelemetry(nodes=[names[index % len(names)]]),
            ],
            seed=seed * 100003 + index,
        )
        corrupted, _records = injector.inject(clean)
        timeline.append((timestamp, corrupted))
        # Demand comes from host records, not router telemetry, so only
        # the topology and drain views are re-aggregated per epoch.
        inputs.append(
            dataclasses.replace(
                clean_inputs,
                topology=plane.topology_service.build(corrupted),
                drains=plane.drain_service.build(corrupted),
                timestamp=timestamp,
            )
        )
    return Fixture(
        topology=topology,
        epochs=timeline,
        inputs=inputs,
        updates=[s.signal_count() for _ts, s in timeline],
    )


# ----------------------------------------------------------------------
# Input hashes: two runs that print the same hash measured the same
# traffic.
# ----------------------------------------------------------------------


def _snapshot_rows(snapshot: NetworkSnapshot) -> Iterable[object]:
    yield snapshot.timestamp
    yield [
        (key, r.rx_rate, r.tx_rate, r.window_s, r.timestamp, r.sequence)
        for key, r in sorted(snapshot.counters.items())
    ]
    yield [
        (key, s.oper_up, s.admin_up) for key, s in sorted(snapshot.link_status.items())
    ]
    yield sorted(snapshot.drains.items())
    yield sorted(snapshot.drain_reasons.items())
    yield sorted(snapshot.link_drains.items())
    yield sorted(snapshot.drops.items())
    yield [(key, p.ok, p.rtt_ms) for key, p in sorted(snapshot.probes.items())]


def hash_snapshots(epochs: Sequence[Tuple[float, NetworkSnapshot]], digest=None):
    """Fold every signal of every epoch into a sha256 (returned)."""
    digest = digest if digest is not None else hashlib.sha256()
    for _ts, snapshot in epochs:
        for rows in _snapshot_rows(snapshot):
            digest.update(repr(rows).encode("utf-8"))
    return digest


def hash_deliveries(events: Iterable[object], digest=None):
    """Fold a delivery sequence, in delivery order, into a sha256."""
    digest = digest if digest is not None else hashlib.sha256()
    for e in events:
        digest.update(
            repr((e.router, e.path, e.epoch_ts, e.emit_ts, e.uid, e.value, e.meta)).encode(
                "utf-8"
            )
        )
    return digest

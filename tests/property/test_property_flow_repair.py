"""Property-based tests for the flow-conservation solver.

Besides soundness, this pins the solver's two front ends to each
other and to recorded results: ``solve`` (dicts, ``None`` =
unknown; the python backend's path) and ``solve_array`` (one flat
array, NaN = unknown; the vector backend's path) must return the same
keys in the same order with bit-identical values and residual, the
same rank and unknown count, and hit or miss a shared solve cache
identically.  ``golden/flow_repair_results.json`` holds three fixed
systems' results captured, as hex floats, from the dict-only solver
the array front end was introduced beside.

Which unknowns are determined, and the rank, the solver reads off the
unknown graph (bridges over routers plus ground).  The SVD null-space
test it used before is kept here as an oracle: every component solved
over the masks below and over the catalog on both backends must get
the same verdicts and rank from both.
"""

import contextlib
import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flow_repair
from repro.core.flow_repair import (
    ConservationSolveCache,
    ConservationSystem,
    edge_var,
    solve_flow_conservation,
)
from repro.engine import ValidationEngine
from repro.net.demand import gravity_demand
from repro.net.simulation import NetworkSimulator
from repro.scenarios.catalog import all_scenarios
from repro.topologies.synthetic import ring_topology, waxman_topology

seeds = st.integers(min_value=0, max_value=2**31 - 1)

GOLDEN = Path(__file__).parent / "golden" / "flow_repair_results.json"


def true_system(seed: int, size: int = 8, topo=None):
    """A consistent conservation system from a real simulation (on a
    waxman topology unless ``topo`` is given)."""
    topo = topo or waxman_topology(size, seed=seed, capacity=1e9)
    demand = gravity_demand(topo.node_names(), total=90.0, seed=seed)
    truth = NetworkSimulator(topo, demand).run()
    nodes = topo.node_names()
    edges = list(topo.directed_edges())
    edge_values = {e: truth.edge_flows[e] for e in edges}
    ext_in = dict(truth.ext_in)
    ext_out = dict(truth.ext_out)
    drops = dict(truth.dropped)
    return nodes, edges, edge_values, ext_in, ext_out, drops, truth


class TestSolverSoundness:
    @given(seed=seeds, how_many=st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_recovered_values_match_truth(self, seed, how_many):
        nodes, edges, edge_values, ext_in, ext_out, drops, truth = true_system(seed)
        import random

        rng = random.Random(seed)
        hidden = rng.sample(edges, min(how_many, len(edges)))
        for edge in hidden:
            edge_values[edge] = None
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        for edge in hidden:
            value = result.values[edge_var(*edge)]
            if value is not None:
                assert value == pytest.approx(truth.edge_flows[edge], rel=1e-6, abs=1e-6)

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_consistent_system_low_residual(self, seed):
        nodes, edges, edge_values, ext_in, ext_out, drops, _truth = true_system(seed)
        edge_values[edges[0]] = None
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.residual < 1e-6

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_solved_subset_of_unknowns(self, seed):
        nodes, edges, edge_values, ext_in, ext_out, drops, _truth = true_system(seed)
        edge_values[edges[0]] = None
        ext_in[nodes[0]] = None
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.num_unknowns == 2
        assert set(result.solved()) <= set(result.values)

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_rank_bounded_by_nodes(self, seed):
        # The paper: up to |V| - 1 unknowns are recoverable (rank of M).
        nodes, edges, edge_values, ext_in, ext_out, drops, _truth = true_system(seed)
        for edge in edges:
            edge_values[edge] = None  # everything unknown
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.rank <= len(nodes)

    def test_determined_values_are_right_the_rest_silent(self):
        # Right or silent: every unknown the graph determines comes back
        # at the simulator's true value; every other one comes back
        # None, as the SVD oracle independently agrees.
        with svd_checked() as tally:

            @given(
                seed=st.integers(min_value=0, max_value=10_000),
                size=st.integers(min_value=4, max_value=16),
                mask=st.sampled_from(TRUTH_MASKS),
                fraction=st.sampled_from([0.02, 0.1, 0.3, 0.7]),
            )
            @settings(max_examples=40, deadline=None)
            def right_or_silent(seed, size, mask, fraction):
                system, edge_values, ext_in, ext_out, drops, truth = masked_truth(
                    seed, size, mask, fraction, 1.0
                )
                result = system.solve(edge_values, ext_in, ext_out, drops)
                assert not tally["disagreements"]
                for key, value in result.solved().items():
                    assert value == pytest.approx(true_value(truth, key), rel=1e-6, abs=1e-6)

            right_or_silent()
        assert tally["determined"] and tally["undetermined"]

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_no_unknowns_empty_result(self, seed):
        nodes, edges, edge_values, ext_in, ext_out, drops, _truth = true_system(seed)
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.values == {}
        assert result.num_unknowns == 0
        assert result.residual < 1e-6


# ---------------------------------------------------------------------------
# One solver, two front ends
# ---------------------------------------------------------------------------

MASKS = (
    "random", "all_known", "all_unknown", "silent_router", "zeros", "cancel", "heavy_drop"
)


def true_value(truth, key):
    """The simulator's value of one conservation variable."""
    kind, *names = key
    if kind == "edge":
        return truth.edge_flows[tuple(names)]
    by_kind = {"ext_in": truth.ext_in, "ext_out": truth.ext_out, "drop": truth.dropped}
    return by_kind[kind][names[0]]


def flat_values(system, edge_values, ext_in, ext_out, drops) -> np.ndarray:
    """The dict inputs in ``solve_array``'s layout, NaN for ``None``."""
    ordered = (
        [edge_values.get(edge) for edge in system.edges]
        + [ext_in.get(node) for node in system.nodes]
        + [ext_out.get(node) for node in system.nodes]
        + [drops.get(node) for node in system.nodes]
    )
    return np.array([np.nan if v is None else v for v in ordered], dtype=np.float64)


def canonical(result):
    """A result with every float as its exact hex spelling, keys in order."""
    return {
        "values": [
            [list(key), None if value is None else float(value).hex()]
            for key, value in result.values.items()
        ],
        "residual": float(result.residual).hex(),
        "rank": result.rank,
        "num_unknowns": result.num_unknowns,
    }


#: Masks whose unknowns form a known shape: a 2-cycle ``u->v`` +
#: ``v->u``, and a ring of unknown edges through 8+ routers plus one
#: external value on it (a pendant edge to ground).
GRAPH_MASKS = MASKS + ("parallel_pair", "long_cycle")

#: Masks that hide values without changing them, so the simulator's
#: flows stay the truth.
TRUTH_MASKS = ("random", "all_unknown", "silent_router", "parallel_pair", "long_cycle")


def masked_system(seed: int, size: int, mask: str, fraction: float, constant: float):
    """A waxman system (a ring for ``long_cycle``) with one of the
    masks the front ends must agree on."""
    return masked_truth(seed, size, mask, fraction, constant)[:-1]


def masked_truth(seed: int, size: int, mask: str, fraction: float, constant: float):
    """:func:`masked_system` plus the simulation it hides values of."""
    if mask == "long_cycle":
        ring = ring_topology(max(size, 8), capacity=1e9)
        nodes, edges, edge_values, ext_in, ext_out, drops, truth = true_system(
            seed, topo=ring
        )
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            edge_values[(a, b)] = None
        ext_in[nodes[seed % len(nodes)]] = None
        return ConservationSystem.build(nodes, edges), edge_values, ext_in, ext_out, drops, truth
    nodes, edges, edge_values, ext_in, ext_out, drops, truth = true_system(seed, size)
    rng = random.Random(seed)
    mappings = (edge_values, ext_in, ext_out, drops)
    if mask == "zeros":
        for mapping in mappings:
            for key in mapping:
                mapping[key] = 0.0
    elif mask == "cancel":
        # Every router's in- and out-terms equal: the right-hand side
        # cancels exactly (or to the last bit) on every row.
        for mapping in (edge_values, ext_in, ext_out):
            for key in mapping:
                mapping[key] = constant
        for key in drops:
            drops[key] = 0.0
    if mask == "all_unknown":
        for mapping in mappings:
            for key in mapping:
                mapping[key] = None
    elif mask == "silent_router":
        victim = nodes[rng.randrange(len(nodes))]
        for edge in edges:
            if victim in edge:
                edge_values[edge] = None
        ext_in[victim] = ext_out[victim] = drops[victim] = None
    elif mask == "parallel_pair":
        src, dst = edges[rng.randrange(len(edges))]
        edge_values[(src, dst)] = edge_values[(dst, src)] = None
    elif mask != "all_known":
        for mapping in mappings:
            for key in mapping:
                if rng.random() < fraction:
                    mapping[key] = None
    if mask == "heavy_drop":
        # A known drop larger than every edge and external value: the
        # residual scale must still ignore drops.
        drops[nodes[0]] = 1e12
    return ConservationSystem.build(nodes, edges), edge_values, ext_in, ext_out, drops, truth


def golden_systems():
    """Three fixed systems: the Figure 3 line, a waxman WAN with a
    corrupted known (inconsistent residual), and a larger one with a
    silent router plus colocated unknowns (underdetermined values)."""
    line = (
        ["A", "B", "C"],
        [("A", "B"), ("B", "A"), ("B", "C"), ("C", "B")],
        {("A", "B"): None, ("B", "A"): 0.0, ("B", "C"): None, ("C", "B"): 0.0},
        {"A": 76.0, "B": 23.0, "C": 0.0},
        {"A": 0.0, "B": 24.0, "C": 75.0},
        {"A": 0.0, "B": None, "C": 0.0},
    )
    systems = {"fig3_line": line}

    nodes, edges, edge_values, ext_in, ext_out, drops, _truth = true_system(3, 12)
    rng = random.Random(3)
    hidden = rng.sample(edges, 4)
    for edge in hidden:
        edge_values[edge] = None
    ext_in[nodes[2]] = None
    # A corrupted known on a row no unknown touches: it cannot be
    # absorbed, so it shows in the residual.
    touched = {node for edge in hidden for node in edge} | {nodes[2]}
    drops[next(node for node in nodes if node not in touched)] += 5.0
    systems["waxman12_corrupted"] = (nodes, edges, edge_values, ext_in, ext_out, drops)

    nodes, edges, edge_values, ext_in, ext_out, drops, _truth = true_system(11, 20)
    victim = nodes[5]
    for edge in edges:
        if victim in edge:
            edge_values[edge] = None
    ext_in[victim] = ext_out[victim] = drops[victim] = None
    ext_in[nodes[9]] = ext_out[nodes[9]] = None
    neighbours = {node for edge in edges if victim in edge for node in edge}
    drops[next(node for node in nodes[10:] if node not in neighbours)] = None
    systems["waxman20_silent_router"] = (nodes, edges, edge_values, ext_in, ext_out, drops)
    return systems


class TestTwoFrontEndsOneAnswer:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=4, max_value=16),
        mask=st.sampled_from(MASKS),
        fraction=st.sampled_from([0.02, 0.1, 0.3, 0.7]),
        constant=st.sampled_from([0.1, 1.0, 3.0, 1e9]),
    )
    @settings(max_examples=60, deadline=None)
    def test_solve_array_equals_dict_solve(self, seed, size, mask, fraction, constant):
        system, edge_values, ext_in, ext_out, drops = masked_system(
            seed, size, mask, fraction, constant
        )
        values = flat_values(system, edge_values, ext_in, ext_out, drops)
        dict_cache, array_cache = ConservationSolveCache(), ConservationSolveCache()
        for _ in range(2):  # a miss, then the same components as hits
            by_dict = system.solve(edge_values, ext_in, ext_out, drops, cache=dict_cache)
            by_array = system.solve_array(values, cache=array_cache)
            assert canonical(by_array) == canonical(by_dict)
            assert (array_cache.hits, array_cache.misses) == (dict_cache.hits, dict_cache.misses)
        if mask == "all_known":
            assert by_array.num_unknowns == 0
        # One cache key space: the array front end hits what the dict
        # front end stored.
        before = dict_cache.misses
        system.solve_array(values, cache=dict_cache)
        assert dict_cache.misses == before
        assert canonical(system.solve_array(values)) == canonical(by_dict)

    @pytest.mark.parametrize("name", sorted(golden_systems()))
    def test_both_front_ends_match_the_golden(self, name):
        golden = json.loads(GOLDEN.read_text())
        expected = golden["systems"][name]
        nodes, edges, edge_values, ext_in, ext_out, drops = golden_systems()[name]
        system = ConservationSystem.build(nodes, edges)
        results = (
            system.solve(edge_values, ext_in, ext_out, drops),
            system.solve_array(flat_values(system, edge_values, ext_in, ext_out, drops)),
        )
        for result in results:
            got = canonical(result)
            if np.__version__ == golden["numpy"]:
                assert got == expected
            else:  # another LAPACK build: structure exact, floats to rounding
                assert [k for k, _ in got["values"]] == [k for k, _ in expected["values"]]
                assert (got["rank"], got["num_unknowns"]) == (
                    expected["rank"],
                    expected["num_unknowns"],
                )
                for (_, a), (_, b) in zip(got["values"], expected["values"]):
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert float.fromhex(a) == pytest.approx(
                            float.fromhex(b), rel=1e-9, abs=1e-9
                        )


# ---------------------------------------------------------------------------
# The graph decides recoverability; the SVD is the oracle
# ---------------------------------------------------------------------------

#: The SVD null-space test's tolerances, as the solver used them
#: before it read recoverability off the unknown graph.
NULLSPACE_TOL = 1e-8
EPS = float(np.finfo(float).eps)


def svd_reference(unknown_entries, members, component_rows):
    """``(determined flags, rank)`` of one component by the SVD: the
    rank counts singular values above ``max(shape) * s0 * eps``, and an
    unknown is determined when every null vector is below
    ``NULLSPACE_TOL`` at its index."""
    row_position = {row: i for i, row in enumerate(component_rows)}
    matrix = np.zeros((len(component_rows), len(members)))
    for column, j in enumerate(members):
        for row, coefficient in unknown_entries[j][3]:
            matrix[row_position[row], column] += coefficient
    _u, singular, vt = np.linalg.svd(matrix)
    tol = max(matrix.shape) * (singular[0] if singular.size else 0.0) * EPS
    rank = int((singular > tol).sum())
    null_vectors = vt[rank:]
    if not null_vectors.size:
        return [True] * len(members), rank
    return (np.abs(null_vectors) <= NULLSPACE_TOL).all(axis=0).tolist(), rank


@contextlib.contextmanager
def svd_checked():
    """Check every component the solver solves against
    :func:`svd_reference`.  Yields a tally of components, determined
    and undetermined unknowns, and disagreements."""
    tally = {"components": 0, "determined": 0, "undetermined": 0, "disagreements": []}
    solve = flow_repair._solve_component

    def checked(unknown_entries, members, component_rows, b):
        solution = solve(unknown_entries, members, component_rows, b)
        values, _residual_sq, rank = solution
        determined = [value is not None for _key, value in values]
        expected = svd_reference(unknown_entries, members, component_rows)
        tally["components"] += 1
        tally["determined"] += sum(determined)
        tally["undetermined"] += len(determined) - sum(determined)
        if (determined, rank) != expected:
            tally["disagreements"].append(([key for key, _ in values], determined, rank, expected))
        return solution

    with mock.patch.object(flow_repair, "_solve_component", checked):
        yield tally


@pytest.fixture(scope="module")
def catalog_epochs():
    """Three seed-7 epochs of every catalog scenario: ``(world, outcomes)``."""
    runs = []
    for scenario in all_scenarios():
        world = scenario.build(seed=7)
        runs.append((world, [world.run_epoch(timestamp=float(epoch)) for epoch in range(3)]))
    return runs


class TestGraphDecidesRecoverability:
    def test_bridges_and_rank_equal_the_svd(self):
        with svd_checked() as tally:

            @given(
                seed=st.integers(min_value=0, max_value=10_000),
                size=st.integers(min_value=4, max_value=16),
                mask=st.sampled_from(GRAPH_MASKS),
                fraction=st.sampled_from([0.02, 0.1, 0.3, 0.7]),
                constant=st.sampled_from([0.1, 1.0, 3.0, 1e9]),
            )
            @settings(max_examples=80, deadline=None)
            def agree(seed, size, mask, fraction, constant):
                system, edge_values, ext_in, ext_out, drops = masked_system(
                    seed, size, mask, fraction, constant
                )
                result = system.solve(edge_values, ext_in, ext_out, drops)
                system.solve_array(flat_values(system, edge_values, ext_in, ext_out, drops))
                assert not tally["disagreements"]
                unknown = [key for key, value in result.values.items() if value is None]
                if mask == "parallel_pair":
                    assert len(unknown) == 2 and result.rank == 1
                if mask == "long_cycle":
                    # The ring's edges lie on a cycle; the external value
                    # hanging off it is a bridge.
                    assert len(unknown) == len(system.nodes) == result.rank

            agree()
        assert tally["determined"] and tally["undetermined"]

    @pytest.mark.parametrize("backend", ["python", "vector"])
    def test_catalog_components_agree_with_the_svd(self, catalog_epochs, backend):
        with svd_checked() as tally:
            for world, outcomes in catalog_epochs:
                engine = ValidationEngine(
                    world.topology, config=world.hodor_config, backend=backend
                )
                for outcome in outcomes:
                    engine.validate(outcome.snapshot, outcome.inputs)
        assert tally["disagreements"] == []
        assert tally["determined"] and tally["undetermined"]

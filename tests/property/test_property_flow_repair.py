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
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow_repair import (
    ConservationSolveCache,
    ConservationSystem,
    edge_var,
    solve_flow_conservation,
)
from repro.net.demand import gravity_demand
from repro.net.simulation import NetworkSimulator
from repro.topologies.synthetic import waxman_topology

seeds = st.integers(min_value=0, max_value=2**31 - 1)

GOLDEN = Path(__file__).parent / "golden" / "flow_repair_results.json"


def true_system(seed: int, size: int = 8):
    """A consistent conservation system from a real simulation."""
    topo = waxman_topology(size, seed=seed, capacity=1e9)
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


def masked_system(seed: int, size: int, mask: str, fraction: float, constant: float):
    """A waxman system with one of the masks the front ends must agree on."""
    nodes, edges, edge_values, ext_in, ext_out, drops, _truth = true_system(seed, size)
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
    elif mask != "all_known":
        for mapping in mappings:
            for key in mapping:
                if rng.random() < fraction:
                    mapping[key] = None
    if mask == "heavy_drop":
        # A known drop larger than every edge and external value: the
        # residual scale must still ignore drops.
        drops[nodes[0]] = 1e12
    return ConservationSystem.build(nodes, edges), edge_values, ext_in, ext_out, drops


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

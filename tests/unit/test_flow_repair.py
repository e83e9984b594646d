"""Unit tests for the flow-conservation solver (R2)."""

import pytest

from repro.core.flow_repair import (
    drop_var,
    edge_var,
    ext_in_var,
    ext_out_var,
    solve_flow_conservation,
)


def line_system(unknown_edges=()):
    """The Figure 3 line network: A -> B -> C.

    A->B carries 76, B->C carries 75; ext_in A=76, B=23; ext_out B=24,
    C=75; no drops.
    """
    nodes = ["A", "B", "C"]
    edges = [("A", "B"), ("B", "A"), ("B", "C"), ("C", "B")]
    edge_values = {("A", "B"): 76.0, ("B", "A"): 0.0, ("B", "C"): 75.0, ("C", "B"): 0.0}
    ext_in = {"A": 76.0, "B": 23.0, "C": 0.0}
    ext_out = {"A": 0.0, "B": 24.0, "C": 75.0}
    drops = {"A": 0.0, "B": 0.0, "C": 0.0}
    for key in unknown_edges:
        edge_values[key] = None
    return nodes, edges, edge_values, ext_in, ext_out, drops


class TestFig3Repair:
    def test_solves_missing_edge(self):
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system(
            unknown_edges=[("A", "B")]
        )
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.values[edge_var("A", "B")] == pytest.approx(76.0)
        assert result.num_unknowns == 1
        assert result.is_consistent(0.01)

    def test_solves_missing_external(self):
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system()
        ext_in["B"] = None
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.values[ext_in_var("B")] == pytest.approx(23.0)

    def test_solves_missing_drop(self):
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system()
        drops["B"] = None
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.values[drop_var("B")] == pytest.approx(0.0)

    def test_solves_two_separated_unknowns(self):
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system(
            unknown_edges=[("A", "B"), ("B", "C")]
        )
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.values[edge_var("A", "B")] == pytest.approx(76.0)
        assert result.values[edge_var("B", "C")] == pytest.approx(75.0)

    def test_no_unknowns_reports_residual(self):
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system()
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.num_unknowns == 0
        assert result.residual == pytest.approx(0.0, abs=1e-9)

    def test_corrupted_known_raises_residual(self):
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system()
        edge_values[("A", "B")] = 120.0  # corrupted but not flagged
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.residual > 0.1


class TestUnderdetermined:
    def test_colocated_unknowns_not_uniquely_solved(self):
        # Both ext_in and ext_out unknown at B: only their difference is
        # determined, so neither value may be "repaired".
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system()
        ext_in["B"] = None
        ext_out["B"] = None
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.values[ext_in_var("B")] is None
        assert result.values[ext_out_var("B")] is None

    def test_rank_bound_respected(self):
        # Up to |V| - 1 unknowns are recoverable (paper).  These four
        # lie on one cycle, ground -> A -> B -> C -> ground, so none is
        # a bridge: all stay unknown, and the rank is 4 vertices - 1.
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system(
            unknown_edges=[("A", "B"), ("B", "C")]
        )
        ext_in["A"] = None
        ext_out["C"] = None
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert list(result.values.values()) == [None] * 4
        assert result.rank == 3

    def test_edge_unknown_disentangled_by_far_end(self):
        # An unknown edge value and an unknown drop at its head look
        # entangled in B's equation alone (x + d = 75), but the edge
        # also appears in C's equation, which pins x = 75 and therefore
        # d = 0.  Interior edges are doubly constrained.
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system(
            unknown_edges=[("B", "C")]
        )
        drops["B"] = None
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.values[edge_var("B", "C")] == pytest.approx(75.0)
        assert result.values[drop_var("B")] == pytest.approx(0.0)


class TestGraphDecides:
    """An unknown is determined iff it is a bridge of the unknown graph
    over the routers plus ground."""

    def test_two_cycle_not_solved(self):
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system(
            unknown_edges=[("A", "B"), ("B", "A")]
        )
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.values == {edge_var("A", "B"): None, edge_var("B", "A"): None}
        assert result.rank == 1

    def test_parallel_ground_edges_not_solved(self):
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system()
        ext_out["B"] = None
        drops["B"] = None
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.values == {ext_out_var("B"): None, drop_var("B"): None}
        assert result.rank == 1

    def test_loops_not_solved_and_add_no_rank(self):
        # A self-loop is a zero column; an edge with both endpoints
        # outside ``nodes`` has no row at all.  Both are loops.
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system(
            unknown_edges=[("A", "B")]
        )
        edges = edges + [("A", "A"), ("X", "Y")]
        edge_values.update({("A", "A"): None, ("X", "Y"): None})
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.values[edge_var("A", "B")] == pytest.approx(76.0)
        assert result.values[edge_var("A", "A")] is None
        assert result.values[edge_var("X", "Y")] is None
        assert result.rank == 1

    def test_spanning_tree_plus_ground_edge_fully_recovered(self):
        # ground -> A -> B -> C is a path: every unknown is a bridge,
        # and the rank is |V|, one more than a ground-free system has.
        nodes, edges, edge_values, ext_in, ext_out, drops = line_system(
            unknown_edges=[("A", "B"), ("B", "C")]
        )
        ext_in["A"] = None
        result = solve_flow_conservation(nodes, edges, edge_values, ext_in, ext_out, drops)
        assert result.solved() == pytest.approx(
            {edge_var("A", "B"): 76.0, edge_var("B", "C"): 75.0, ext_in_var("A"): 76.0}
        )
        assert result.rank == 3


class TestNumericalHygiene:
    def test_tiny_negative_clamped(self):
        nodes = ["A", "B"]
        edges = [("A", "B"), ("B", "A")]
        edge_values = {("A", "B"): None, ("B", "A"): 0.0}
        # Zero traffic everywhere: solution should be 0, possibly a
        # hair negative from floating point.
        result = solve_flow_conservation(
            nodes,
            edges,
            edge_values,
            {"A": 0.0, "B": 0.0},
            {"A": 0.0, "B": 0.0},
            {"A": 0.0, "B": 0.0},
        )
        assert result.values[edge_var("A", "B")] == 0.0

    def test_hair_below_zero_clamped(self):
        # Knowns that disagree by 1e-9 put the least-squares solution
        # about 1e-9 below zero; the solver clamps it to exactly 0.0.
        nodes = ["A", "B"]
        edges = [("A", "B"), ("B", "A")]
        edge_values = {("A", "B"): None, ("B", "A"): 0.0}
        result = solve_flow_conservation(
            nodes,
            edges,
            edge_values,
            {"A": 1.0, "B": 1e-9},
            {"A": 1.0 + 1e-9, "B": 0.0},
            {"A": 0.0, "B": 0.0},
        )
        assert result.values[edge_var("A", "B")] == 0.0

    def test_meaningfully_negative_preserved(self):
        # Inconsistent knowns force a negative solution; the solver
        # must not hide it (the hardener flags it).
        nodes = ["A", "B"]
        edges = [("A", "B"), ("B", "A")]
        edge_values = {("A", "B"): None, ("B", "A"): 0.0}
        result = solve_flow_conservation(
            nodes,
            edges,
            edge_values,
            {"A": 0.0, "B": 10.0},
            {"A": 10.0, "B": 0.0},
            {"A": 0.0, "B": 0.0},
        )
        value = result.values[edge_var("A", "B")]
        assert value is not None and value < -1.0

    def test_large_scale_relative_residual(self):
        # Residuals are scaled by system magnitude so Gbps-scale noise
        # does not read as inconsistency.
        nodes = ["A", "B"]
        edges = [("A", "B"), ("B", "A")]
        edge_values = {("A", "B"): 1e9, ("B", "A"): 0.0}
        result = solve_flow_conservation(
            nodes,
            edges,
            edge_values,
            {"A": 1.001e9, "B": 0.0},
            {"A": 0.0, "B": 1e9},
            {"A": 0.0, "B": 0.0},
        )
        assert result.residual < 0.01

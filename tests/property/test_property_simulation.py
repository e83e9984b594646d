"""Property-based tests for the simulator's conservation guarantees.

These are the invariants the whole paper rests on: flow conservation
holds exactly on ground truth, drops are non-negative, delivery never
exceeds demand.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.demand import gravity_demand
from repro.net.simulation import NetworkSimulator
from repro.topologies.synthetic import waxman_topology

seeds = st.integers(min_value=0, max_value=2**31 - 1)
sizes = st.integers(min_value=2, max_value=12)
totals = st.floats(min_value=0.0, max_value=5000.0, allow_nan=False, allow_infinity=False)


def simulate(size, seed, total, strategy="ecmp"):
    topo = waxman_topology(size, seed=seed, capacity=100.0)
    demand = gravity_demand(topo.node_names(), total=total, seed=seed)
    return topo, demand, NetworkSimulator(topo, demand, strategy=strategy).run()


class TestConservation:
    @given(size=sizes, seed=seeds, total=totals)
    @settings(max_examples=40, deadline=None)
    def test_flow_conservation_exact(self, size, seed, total):
        topo, _demand, truth = simulate(size, seed, total)
        scale = max(1.0, total)
        for node in topo.node_names():
            assert abs(truth.conservation_residual(node)) <= 1e-7 * scale

    @given(size=sizes, seed=seeds, total=totals)
    @settings(max_examples=40, deadline=None)
    def test_drops_nonnegative(self, size, seed, total):
        _topo, _demand, truth = simulate(size, seed, total)
        assert all(dropped >= -1e-9 for dropped in truth.dropped.values())

    @given(size=sizes, seed=seeds, total=totals)
    @settings(max_examples=40, deadline=None)
    def test_edge_flows_within_capacity(self, size, seed, total):
        topo, _demand, truth = simulate(size, seed, total)
        for (u, v), rate in truth.edge_flows.items():
            capacity = topo.link_between(u, v).capacity
            assert rate <= capacity * (1 + 1e-9)

    @given(size=sizes, seed=seeds, total=totals)
    @settings(max_examples=40, deadline=None)
    def test_delivery_bounded_by_demand(self, size, seed, total):
        _topo, demand, truth = simulate(size, seed, total)
        for (src, dst), delivered in truth.delivered.items():
            # Subnormal rates carry no relative precision, so below the
            # normal range the 1e-9 bound is taken at the smallest normal.
            assert delivered <= demand[src, dst] * (1 + 1e-9) + 1e-9 * sys.float_info.min

    @given(size=sizes, seed=seeds, total=totals)
    @settings(max_examples=40, deadline=None)
    def test_global_balance(self, size, seed, total):
        _topo, _demand, truth = simulate(size, seed, total)
        admitted = sum(truth.ext_in.values())
        delivered = sum(truth.ext_out.values())
        dropped = truth.total_dropped()
        assert admitted == pytest.approx(delivered + dropped, rel=1e-6, abs=1e-6)

    @given(size=sizes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_loss_rate_in_unit_interval(self, size, seed):
        _topo, _demand, truth = simulate(size, seed, 3000.0)
        assert 0.0 <= truth.loss_rate() <= 1.0


class TestStrategyAgreement:
    @given(size=st.integers(min_value=3, max_value=10), seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_total_admitted_independent_of_strategy(self, size, seed):
        topo = waxman_topology(size, seed=seed, capacity=1e9)
        demand = gravity_demand(topo.node_names(), total=50.0, seed=seed)
        ecmp = NetworkSimulator(topo, demand, strategy="ecmp").run()
        single = NetworkSimulator(topo, demand, strategy="single").run()
        assert sum(ecmp.ext_in.values()) == pytest.approx(sum(single.ext_in.values()))
        # with effectively infinite capacity, everything is delivered
        assert ecmp.total_delivered() == pytest.approx(single.total_delivered())

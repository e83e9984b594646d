"""Unit tests for the topology-keyed cache layer."""

import pytest

from repro.engine.cache import (
    TopologyCache,
    TopologyCacheStore,
    structural_key,
    topology_fingerprint,
)
from repro.net.topology import Link, Node, Topology
from repro.topologies.abilene import abilene


def small_topology(capacity: float = 10.0, drained: bool = False) -> Topology:
    topo = Topology("small")
    topo.add_node(Node("a"))
    topo.add_node(Node("b", drained=drained))
    topo.add_node(Node("c"))
    topo.add_link(Link("a", "b", capacity=capacity))
    topo.add_link(Link("b", "c"))
    return topo


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert topology_fingerprint(small_topology()) == topology_fingerprint(
            small_topology()
        )
        assert structural_key(small_topology()) == structural_key(small_topology())

    def test_independent_of_construction_order(self):
        forward = small_topology()
        backward = Topology("small-reversed")
        backward.add_node(Node("c"))
        backward.add_node(Node("b"))
        backward.add_node(Node("a"))
        backward.add_link(Link("b", "c"))
        backward.add_link(Link("a", "b", capacity=10.0))
        assert structural_key(forward) == structural_key(backward)

    def test_changes_on_node_added(self):
        grown = small_topology()
        grown.add_node(Node("d"))
        assert topology_fingerprint(grown) != topology_fingerprint(small_topology())

    def test_changes_on_link_added(self):
        meshed = small_topology()
        meshed.add_link(Link("a", "c"))
        assert topology_fingerprint(meshed) != topology_fingerprint(small_topology())

    def test_changes_on_capacity(self):
        assert topology_fingerprint(small_topology(capacity=20.0)) != (
            topology_fingerprint(small_topology(capacity=10.0))
        )

    def test_changes_on_drain_bit(self):
        assert topology_fingerprint(small_topology(drained=True)) != (
            topology_fingerprint(small_topology(drained=False))
        )


class TestTopologyCache:
    def test_orders_mirror_topology(self):
        topo = abilene()
        cache = TopologyCache.from_topology(topo)
        assert cache.nodes == tuple(topo.node_names())
        assert cache.directed_edges == tuple(topo.directed_edges())
        assert cache.links == tuple(topo.links())
        assert cache.sorted_nodes == tuple(sorted(topo.node_names()))
        assert cache.sorted_link_names == tuple(sorted(link.name for link in topo.links()))

    def test_incidence_maps(self):
        cache = TopologyCache.from_topology(small_topology())
        assert set(cache.node_edges["b"]) == {
            ("a", "b"),
            ("b", "a"),
            ("b", "c"),
            ("c", "b"),
        }
        assert cache.node_links["a"] == ("a~b",)
        assert set(cache.node_links["b"]) == {"a~b", "b~c"}

    def test_conservation_structure(self):
        topo = small_topology()
        cache = TopologyCache.from_topology(topo)
        assert cache.conservation.nodes == tuple(topo.node_names())
        assert cache.conservation.edges == tuple(topo.directed_edges())


class TestTopologyCacheStore:
    def test_hit_after_miss(self):
        store = TopologyCacheStore()
        first = store.get(small_topology())
        second = store.get(small_topology())
        assert first is second
        assert (store.hits, store.misses) == (1, 1)
        assert len(store) == 1

    def test_mutation_misses(self):
        store = TopologyCacheStore()
        store.get(small_topology())
        store.get(small_topology(capacity=20.0))
        assert (store.hits, store.misses) == (0, 2)
        assert len(store) == 2

    def test_lru_eviction(self):
        store = TopologyCacheStore(max_entries=2)
        store.get(small_topology(capacity=1.0))
        store.get(small_topology(capacity=2.0))
        store.get(small_topology(capacity=3.0))  # evicts capacity=1.0
        assert len(store) == 2
        store.get(small_topology(capacity=1.0))
        assert store.misses == 4
        assert store.hits == 0

    def test_rejects_zero_capacity_store(self):
        with pytest.raises(ValueError):
            TopologyCacheStore(max_entries=0)

    def test_repeat_lookup_of_one_object_builds_the_key_once(self, monkeypatch):
        import repro.engine.cache as cache_module

        built = []
        real = cache_module.structural_key
        monkeypatch.setattr(
            cache_module, "structural_key", lambda topo: built.append(topo) or real(topo)
        )
        store = TopologyCacheStore()
        topo = small_topology()
        first = store.get(topo)
        built.clear()  # the miss built the key (and the fingerprint from it)
        assert all(store.get(topo) is first for _ in range(3))
        assert built == []
        assert (store.hits, store.misses) == (3, 1)
        # An equal-but-distinct topology still shares the entry, by key.
        assert store.get(small_topology()) is first
        assert len(built) == 1 and len(store) == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda topo: topo.add_node(Node("d")),
            lambda topo: topo.add_link(Link("a", "c")),
            lambda topo: topo.remove_link("a", "b"),
            lambda topo: topo.replace_node(Node("b", drained=True)),
            lambda topo: topo.replace_link(Link("a", "b", capacity=99.0)),
        ],
        ids=["add_node", "add_link", "remove_link", "replace_node", "replace_link"],
    )
    def test_every_mutator_makes_the_same_object_miss(self, mutate):
        store = TopologyCacheStore()
        topo = small_topology()
        before = store.get(topo)
        version = topo.version
        mutate(topo)
        assert topo.version == version + 1
        after = store.get(topo)
        assert after is not before
        assert after.fingerprint == topology_fingerprint(topo) != before.fingerprint
        assert (store.hits, store.misses) == (0, 2)

    def test_latest_entry_survives_eviction_of_older_ones(self):
        store = TopologyCacheStore(max_entries=1)
        first, second = small_topology(capacity=1.0), small_topology(capacity=2.0)
        store.get(first)
        cache = store.get(second)  # evicts ``first``
        assert store.get(second) is cache
        store.get(first)
        assert (store.hits, store.misses) == (1, 3)


def test_link_names_follow_insertion_order_and_match_link_name():
    topo = small_topology()
    assert topo.link_names() == [link.name for link in topo.links()] == ["a~b", "b~c"]

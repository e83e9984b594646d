"""Topology-keyed caches of validation-derived structures.

Every step of the Hodor pipeline needs the same handful of structures
derived from the reference topology: the directed-edge list, the
per-router incidence maps, the flow-conservation equation blocks, and
the sorted name orders the checkers iterate in.  Historically each
component rebuilt its own copy per call -- the
:class:`~repro.core.hardening.Hardener` scanned every edge once per
router to decide whether a router carries traffic, and the
:class:`~repro.core.drain_check.DrainChecker` re-split every link name
per router -- which made a validation pass superlinear in network size
and made *every* epoch pay topology-setup cost even when the topology
had not changed.

This module is the single home for those builders.  A
:class:`TopologyCache` is an immutable bundle of all of them, built in
one pass; a :class:`TopologyCacheStore` memoizes caches behind a
structural :func:`topology_fingerprint`, so an always-on engine
replaying epoch after epoch on an unchanged topology performs the
setup exactly once and takes a cache hit on every later epoch.  Any
topology change (node or link added/removed, capacity or drain or
vendor flipped) changes the fingerprint and transparently invalidates
the entry.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.flow_repair import ConservationSystem
from repro.net.topology import Link, Topology

__all__ = [
    "topology_fingerprint",
    "structural_key",
    "TopologyCache",
    "TopologyCacheStore",
    "VectorModelStore",
]


def structural_key(topology: Topology) -> Tuple:
    """A hashable value that is equal iff two topologies are equal.

    Includes every :class:`~repro.net.topology.Node` and
    :class:`~repro.net.topology.Link` record (they are frozen
    dataclasses, so capacities, drain bits, reasons, and vendors all
    participate), in name order so construction order does not matter.
    """
    nodes = tuple(sorted((n for n in topology.nodes()), key=lambda n: n.name))
    links = tuple(map(topology.link, sorted(topology.link_names())))
    return (nodes, links)


def topology_fingerprint(topology: Topology) -> str:
    """A stable hex digest of the topology's structural content.

    Suitable for logs, metrics labels, and cross-process comparison;
    in-process cache lookups use :func:`structural_key` directly (no
    hashing collisions, no digest cost).
    """
    return hashlib.sha256(repr(structural_key(topology)).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TopologyCache:
    """Every topology-derived structure one validation pass needs.

    Built once per distinct topology (see :class:`TopologyCacheStore`)
    and shared read-only by the collector, hardener, and checkers.
    Iteration orders deliberately mirror what each component previously
    derived per call, so cached and uncached passes are
    indistinguishable output-wise:

    Attributes:
        fingerprint: :func:`topology_fingerprint` of the source.
        nodes: Router names in topology insertion order (the order
            :meth:`~repro.net.topology.Topology.node_names` returns).
        sorted_nodes: Router names in sorted order (checker order).
        node_index: Router name -> equation row index.
        directed_edges: All directed edges, two per link, in canonical
            link-name order (hardening order).
        links: Link records in insertion order.
        sorted_link_names: Canonical link names, sorted (checker order).
        node_edges: Router -> the directed edges touching it.
        node_links: Router -> the canonical names of its links.
        conservation: Prebuilt flow-conservation equation blocks.
    """

    fingerprint: str
    nodes: Tuple[str, ...]
    sorted_nodes: Tuple[str, ...]
    node_index: Dict[str, int]
    directed_edges: Tuple[Tuple[str, str], ...]
    links: Tuple[Link, ...]
    sorted_link_names: Tuple[str, ...]
    node_edges: Dict[str, Tuple[Tuple[str, str], ...]]
    node_links: Dict[str, Tuple[str, ...]]
    conservation: ConservationSystem

    @classmethod
    def from_topology(cls, topology: Topology) -> "TopologyCache":
        """Build every derived structure in one pass."""
        nodes = tuple(topology.node_names())
        directed_edges = tuple(topology.directed_edges())
        links = tuple(topology.links())

        node_edges: Dict[str, list] = {node: [] for node in nodes}
        for src, dst in directed_edges:
            node_edges[src].append((src, dst))
            node_edges[dst].append((src, dst))
        node_links: Dict[str, list] = {node: [] for node in nodes}
        for link in links:
            node_links[link.a].append(link.name)
            node_links[link.b].append(link.name)

        return cls(
            fingerprint=topology_fingerprint(topology),
            nodes=nodes,
            sorted_nodes=tuple(sorted(nodes)),
            node_index={node: i for i, node in enumerate(nodes)},
            directed_edges=directed_edges,
            links=links,
            sorted_link_names=tuple(sorted(link.name for link in links)),
            node_edges={node: tuple(edges) for node, edges in node_edges.items()},
            node_links={node: tuple(names) for node, names in node_links.items()},
            conservation=ConservationSystem.build(nodes, directed_edges),
        )


class TopologyCacheStore:
    """An LRU store of :class:`TopologyCache` entries.

    Keys are :func:`structural_key` tuples, so a lookup on a mutated
    topology misses and builds a fresh cache -- callers never have to
    invalidate explicitly -- and equal-but-distinct topologies share
    one entry.  A repeat lookup of the *same object* at the same
    ``version`` skips building the key (a sort plus a hash of every
    record).  The store counts hits and misses; the engine surfaces
    them through :class:`~repro.engine.stats.EngineStats`.

    Args:
        max_entries: Evict least-recently-used entries beyond this.
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._entries: "OrderedDict[Tuple, TopologyCache]" = OrderedDict()
        #: (topology, its version, its cache) of the latest lookup --
        #: always the most recently used entry, so never the one evicted.
        self._latest: Optional[Tuple[Topology, int, TopologyCache]] = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, topology: Topology) -> TopologyCache:
        """The cache for this topology, building it on first sight."""
        latest = self._latest
        if (
            latest is not None
            and latest[0] is topology
            and latest[1] == topology.version
        ):
            self.hits += 1
            return latest[2]
        key = structural_key(topology)
        cache = self._entries.get(key)
        if cache is not None:
            self.hits += 1
            self._entries.move_to_end(key)
        else:
            self.misses += 1
            cache = TopologyCache.from_topology(topology)
            self._entries[key] = cache
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
        self._latest = (topology, topology.version, cache)
        return cache


class VectorModelStore:
    """An LRU store of compiled vector models, one per topology.

    The vector backend's compilation step
    (:meth:`repro.core.vector.model.VectorModel.from_cache`) lowers a
    :class:`TopologyCache` into indexed numpy arrays and CSR incidence
    matrices.  Like the topology caches themselves, the compiled model
    is a pure function of the topology, so entries are keyed by the
    cache fingerprint and an unchanged topology compiles exactly once
    per store lifetime.

    Args:
        max_entries: Evict least-recently-used entries beyond this.
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, cache: TopologyCache):
        """The compiled model for this cache, compiling on first sight."""
        model = self._entries.get(cache.fingerprint)
        if model is not None:
            self.hits += 1
            self._entries.move_to_end(cache.fingerprint)
            return model
        self.misses += 1
        # Deferred so importing the engine does not pull numpy/scipy in
        # (and so the vector package may import this module freely).
        from repro.core.vector.model import VectorModel

        model = VectorModel.from_cache(cache)
        self._entries[cache.fingerprint] = model
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
        return model

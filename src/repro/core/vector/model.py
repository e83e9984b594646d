"""Array-compiled topology model for the vector backend.

A :class:`VectorModel` is the one-time compilation of a
:class:`~repro.engine.cache.TopologyCache` into indexed numpy/scipy
structures, built once per topology fingerprint and reused every epoch
(see :class:`~repro.engine.cache.VectorModelStore`):

- **slot maps**: every signal family the pipeline reads gets a dense
  integer slot universe -- interface counters are laid out as the
  directed edges followed by one external slot per router, so the two
  measurements of one traffic direction (tx at the source, rx at the
  reverse interface) become a *paired-column* gather
  (``cnt_tx[edge]`` vs ``cnt_rx[edge_rev[edge]]``) and R1 symmetry is
  one elementwise comparison over all edges at once;
- **incidence matrices in CSR form**: the absolute router x edge and
  router x link incidence turn the per-router reductions of the serial
  path -- "does this router carry traffic", "how many usable links
  touch it" -- into sparse matrix-vector products.  (R2's conservation
  system is lowered to flat arrays once per topology on the
  :class:`~repro.core.flow_repair.ConservationSystem` itself, which both
  backends share through the topology cache.)
- **iteration-order indices**: gather arrays mapping the checker's
  sorted orders onto the insertion-order arrays, so assembly can walk
  the exact serial orders without per-entity dict lookups.

- **a path index**: rendered gNMI path -> one id in a single id space
  laid out family by family over those slot universes
  (:class:`PathIndex`), so sealed update events scatter into the slot
  arrays without an intermediate snapshot.

The model holds *structure only* -- no per-epoch values and no
references to the per-entity units; the epoch-time array work lives in
:mod:`repro.core.vector.backend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.net.topology import EXTERNAL_PEER
from repro.telemetry.paths import SignalKind, SignalPath

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.cache import TopologyCache

__all__ = ["PathIndex", "VectorModel"]


class PathIndex:
    """Rendered path -> id, decoded once per distinct path.

    Ids ``[0, size)`` are one contiguous :attr:`span` per signal kind,
    as long as that kind's slot universe (:attr:`slots`: key -> slot,
    :attr:`keys`: slot -> key), so ``id - span[kind].start`` is the slot
    the pack stage writes.  A path whose key the topology does not have
    -- an unknown router or interface -- gets id ``size``.

    Memory is set by the topology, not by what routers send: slotted
    paths number at most ``size`` (the decode is injective), at most
    ``OUTSIDE_FACTOR * size`` outside paths are remembered, and any
    further one is decoded again each time it is seen.
    """

    OUTSIDE_FACTOR = 2

    def __init__(
        self,
        counter_slot: Dict[Tuple[str, str], int],
        edge_index: Dict[Tuple[str, str], int],
        node_slot: Dict[str, int],
    ) -> None:
        self.span: Dict[SignalKind, slice] = {}
        self.keys: Dict[SignalKind, tuple] = {}
        self.slots: Dict[SignalKind, Dict] = {}
        self.size = 0
        K = SignalKind
        for slot_map, kinds in (
            (counter_slot, (K.RX_RATE, K.TX_RATE)),
            (edge_index, (K.OPER_STATUS, K.ADMIN_STATUS, K.LINK_DRAIN, K.PROBE)),
            (node_slot, (K.DRAIN, K.DRAIN_REASON, K.NODE_DROPS)),
        ):
            for kind in kinds:
                self.span[kind] = slice(self.size, self.size + len(slot_map))
                self.keys[kind] = tuple(slot_map)  # dicts are in slot order
                self.slots[kind] = slot_map
                self.size += len(slot_map)
        self._ids: Dict[str, int] = {}
        self._outside: Dict[str, Tuple[SignalKind, object]] = {}

    def __len__(self) -> int:
        """Paths remembered so far, slotted and outside together."""
        return len(self._ids)

    def _decode(self, path: str) -> Tuple[SignalKind, object, int]:
        """``(kind, key, id)`` by the reference codec's own parser."""
        parsed = SignalPath.parse(path)
        key = parsed.node if parsed.peer is None else (parsed.node, parsed.peer)
        slot = self.slots[parsed.kind].get(key)
        start = self.span[parsed.kind].start
        return parsed.kind, key, self.size if slot is None else start + slot

    def _learn(self, path: str) -> int:
        kind, key, found = self._decode(path)
        if found == self.size:
            if len(self._outside) >= self.OUTSIDE_FACTOR * self.size:
                return found  # no room: decoded again next time
            self._outside[path] = (kind, key)
        self._ids[path] = found
        return found

    def resolve(
        self, events: Sequence
    ) -> Tuple[np.ndarray, Dict[SignalKind, Dict[object, int]]]:
        """The id of every event's path, and the position of every event
        outside the universe by kind and key (the last one, if a key
        has several).

        Raises:
            PathError: A path matches no registered template.
        """
        known = self._ids
        try:
            ids = [known[event.path] for event in events]
        except KeyError:  # first sight of a path, or one not remembered
            ids = [
                known[event.path] if event.path in known else self._learn(event.path)
                for event in events
            ]
        ids = np.array(ids, dtype=np.int64)
        outside: Dict[SignalKind, Dict[object, int]] = {}
        for position in np.nonzero(ids == self.size)[0].tolist():
            path = events[position].path
            kind, key = self._outside.get(path) or self._decode(path)[:2]
            outside.setdefault(kind, {})[key] = position
        return ids, outside


@dataclass(frozen=True)
class VectorModel:
    """Every topology-derived array structure one vector epoch needs.

    Attributes:
        cache: The source topology cache (shared with the serial path).
        num_nodes: Router count ``N``.
        num_links: Link count ``L``.
        num_edges: Directed-edge count ``E`` (``2 * L``).
        counter_slot: Interface-counter key -> dense slot.  The first
            ``E`` slots are the directed edges in cache order; the next
            ``N`` slots are the routers' external interfaces.
        num_counter_slots: ``E + N``.
        ext_slots: Per router (insertion order), the slot of its
            external-interface counter.
        edge_index: Directed edge -> edge index (cache order).
        edge_rev: Per directed edge, the index of the reversed edge
            (the paired column for R1 symmetry).
        node_slot: Router name -> node index (insertion order).
        link_ab: Per link (cache order), the edge index of ``(a, b)``.
        link_ba: Per link, the edge index of ``(b, a)``.
        link_names: Canonical link names in cache order.
        edge_subjects: ``"src->dst"`` per directed edge (finding
            subjects, precomputed once).
        edge_incidence_abs: CSR ``(N, E)``; entry 1 when the edge
            touches the router (both endpoints).
        link_incidence_abs: CSR ``(N, L)``; entry 1 when the link
            touches the router.
        node_degree: Per router, how many links touch it.
        sorted_node_idx: Per sorted router, its insertion-order index.
        sorted_link_idx: Per sorted link name, its cache-order index.
        path_index: Rendered path -> slot, filled as paths are first
            seen (the one part of the model that is not immutable; it
            only ever grows, up to its stated bound).
    """

    cache: "TopologyCache"
    num_nodes: int
    num_links: int
    num_edges: int
    counter_slot: Dict[Tuple[str, str], int]
    num_counter_slots: int
    ext_slots: np.ndarray
    edge_index: Dict[Tuple[str, str], int]
    edge_rev: np.ndarray
    node_slot: Dict[str, int]
    link_ab: np.ndarray
    link_ba: np.ndarray
    link_names: Tuple[str, ...]
    edge_subjects: Tuple[str, ...]
    edge_incidence_abs: sparse.csr_matrix
    link_incidence_abs: sparse.csr_matrix
    node_degree: np.ndarray
    sorted_node_idx: np.ndarray
    sorted_link_idx: np.ndarray
    path_index: PathIndex

    @classmethod
    def from_cache(cls, cache: "TopologyCache") -> "VectorModel":
        """Compile one topology cache into the array model."""
        nodes = cache.nodes
        edges = cache.directed_edges
        links = cache.links
        num_nodes = len(nodes)
        num_edges = len(edges)
        num_links = len(links)

        node_slot = {node: i for i, node in enumerate(nodes)}
        edge_index = {edge: i for i, edge in enumerate(edges)}
        edge_rev = np.array(
            [edge_index[(dst, src)] for src, dst in edges], dtype=np.int64
        ).reshape(num_edges)

        counter_slot: Dict[Tuple[str, str], int] = dict(edge_index)
        ext_slots = np.empty(num_nodes, dtype=np.int64)
        for i, node in enumerate(nodes):
            slot = num_edges + i
            counter_slot[(node, EXTERNAL_PEER)] = slot
            ext_slots[i] = slot

        link_ab = np.array(
            [edge_index[(link.a, link.b)] for link in links], dtype=np.int64
        ).reshape(num_links)
        link_ba = np.array(
            [edge_index[(link.b, link.a)] for link in links], dtype=np.int64
        ).reshape(num_links)

        # |M| restricted to edge columns: each directed edge touches the
        # equations of both its endpoints.
        edge_rows = np.empty(2 * num_edges, dtype=np.int64)
        edge_cols = np.empty(2 * num_edges, dtype=np.int64)
        for e, (src, dst) in enumerate(edges):
            edge_rows[2 * e] = node_slot[src]
            edge_rows[2 * e + 1] = node_slot[dst]
            edge_cols[2 * e] = e
            edge_cols[2 * e + 1] = e
        edge_incidence_abs = sparse.csr_matrix(
            (np.ones(2 * num_edges), (edge_rows, edge_cols)),
            shape=(num_nodes, num_edges),
        )

        link_rows = np.empty(2 * num_links, dtype=np.int64)
        link_cols = np.empty(2 * num_links, dtype=np.int64)
        for li, link in enumerate(links):
            link_rows[2 * li] = node_slot[link.a]
            link_rows[2 * li + 1] = node_slot[link.b]
            link_cols[2 * li] = li
            link_cols[2 * li + 1] = li
        link_incidence_abs = sparse.csr_matrix(
            (np.ones(2 * num_links), (link_rows, link_cols)),
            shape=(num_nodes, num_links),
        )
        node_degree = np.asarray(link_incidence_abs.sum(axis=1)).reshape(num_nodes)

        sorted_node_idx = np.array(
            [node_slot[node] for node in cache.sorted_nodes], dtype=np.int64
        ).reshape(num_nodes)
        link_pos = {link.name: i for i, link in enumerate(links)}
        sorted_link_idx = np.array(
            [link_pos[name] for name in cache.sorted_link_names], dtype=np.int64
        ).reshape(num_links)

        return cls(
            cache=cache,
            num_nodes=num_nodes,
            num_links=num_links,
            num_edges=num_edges,
            counter_slot=counter_slot,
            num_counter_slots=num_edges + num_nodes,
            ext_slots=ext_slots,
            edge_index=edge_index,
            edge_rev=edge_rev,
            node_slot=node_slot,
            link_ab=link_ab,
            link_ba=link_ba,
            link_names=tuple(link.name for link in links),
            edge_subjects=tuple(f"{src}->{dst}" for src, dst in edges),
            edge_incidence_abs=edge_incidence_abs,
            link_incidence_abs=link_incidence_abs,
            node_degree=node_degree,
            sorted_node_idx=sorted_node_idx,
            sorted_link_idx=sorted_link_idx,
            path_index=PathIndex(counter_slot, edge_index, node_slot),
        )

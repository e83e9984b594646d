"""WAN topology model: nodes, links, and interfaces.

The model mirrors how the paper talks about the network:

- A *node* is a WAN router.  Routers carry an operator-intended drain
  state (the ground truth that telemetry may misreport, Section 2.1).
- A *link* is a bidirectional adjacency between two routers with a
  capacity per direction.  Each link materialises two *interfaces*, one
  on each endpoint, and traffic on the two directions of a link is
  accounted independently.
- Every router additionally owns one *external* interface facing the
  hosts/datacenter fabric attached to it.  External interfaces are where
  demand enters and leaves the WAN domain (the paper's footnote 4:
  "traffic leaving or entering the network domain, e.g., to a datacenter
  Top-of-Rack switch").

All identifiers are plain strings so snapshots and reports serialise
trivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Node",
    "Link",
    "Interface",
    "Topology",
    "TopologyError",
    "EXTERNAL_PEER",
]

#: Pseudo peer name used for host-facing (external) interfaces.
EXTERNAL_PEER = "__external__"


class TopologyError(ValueError):
    """Raised on structurally invalid topology operations."""


@dataclass(frozen=True)
class Node:
    """A WAN router.

    Attributes:
        name: Unique router name (e.g. ``"atla"``).
        site: Optional point-of-presence / metro the router lives in.
        drained: Operator-*intended* drain state.  ``True`` means the
            operator wants no traffic on this router.  Telemetry reports
            a possibly different view of this bit (Section 2.1,
            "Incorrect intent").
        drain_reason: Why the drain was applied (the Section 4.3
            standardization proposal); empty means unspecified.
        vendor: Router vendor label.  Correlated vendor bugs (Section
            3.2's open question) are injected per-vendor.
    """

    name: str
    site: str = ""
    drained: bool = False
    drain_reason: str = ""
    vendor: str = "vendor-a"

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("node name must be non-empty")


@dataclass(frozen=True)
class Link:
    """A bidirectional link between two routers.

    Attributes:
        a: Name of one endpoint router.
        b: Name of the other endpoint router.
        capacity: Capacity of each direction, in traffic-rate units
            (the whole library is unit-agnostic; benchmarks use Gbps).
        drained: Operator-intended link drain state (Section 4.3
            proposes making all drains link drains).
    """

    a: str
    b: str
    capacity: float = 100.0
    drained: bool = False

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-loop link at {self.a!r}")
        if not (self.capacity > 0) or math.isinf(self.capacity):
            raise TopologyError(f"link {self.a}-{self.b}: capacity must be finite and positive")

    @property
    def name(self) -> str:
        """Canonical link name, endpoint-order independent."""
        lo, hi = sorted((self.a, self.b))
        return f"{lo}~{hi}"

    def other(self, node: str) -> str:
        """Return the endpoint opposite to ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"{node!r} is not an endpoint of link {self.name}")

    def directions(self) -> Tuple[Tuple[str, str], Tuple[str, str]]:
        """Both directed edges of this link as ``(src, dst)`` pairs."""
        return (self.a, self.b), (self.b, self.a)


@dataclass(frozen=True)
class Interface:
    """One endpoint of a link (or the host-facing side of a router).

    An interface is identified by the router that owns it and the peer
    router it faces.  The host-facing interface uses
    :data:`EXTERNAL_PEER` as its peer.
    """

    node: str
    peer: str

    @property
    def is_external(self) -> bool:
        return self.peer == EXTERNAL_PEER

    @property
    def name(self) -> str:
        if self.is_external:
            return f"{self.node}:ext"
        return f"{self.node}->{self.peer}"


class Topology:
    """A mutable WAN topology graph.

    The graph is simple (at most one link per router pair) and
    undirected at the link level; traffic accounting is directional.

    Example:
        >>> topo = Topology("demo")
        >>> topo.add_node(Node("a"))
        >>> topo.add_node(Node("b"))
        >>> topo.add_link(Link("a", "b", capacity=10.0))
        >>> sorted(topo.neighbors("a"))
        ['b']
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[str, Link] = {}
        self._adjacency: Dict[str, Dict[str, str]] = {}
        #: Bumped by every mutator, so caches keyed on this object can
        #: tell "same object, unchanged" without re-reading its records.
        self.version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Add a router.  Re-adding an existing name is an error."""
        if node.name in self._nodes:
            raise TopologyError(f"duplicate node {node.name!r}")
        if node.name == EXTERNAL_PEER:
            raise TopologyError(f"{EXTERNAL_PEER!r} is reserved")
        self._nodes[node.name] = node
        self._adjacency[node.name] = {}
        self.version += 1

    def add_link(self, link: Link) -> None:
        """Add a link between two existing routers."""
        for endpoint in (link.a, link.b):
            if endpoint not in self._nodes:
                raise TopologyError(f"link {link.name}: unknown node {endpoint!r}")
        if link.name in self._links:
            raise TopologyError(f"duplicate link {link.name}")
        self._links[link.name] = link
        self._adjacency[link.a][link.b] = link.name
        self._adjacency[link.b][link.a] = link.name
        self.version += 1

    def remove_link(self, a: str, b: str) -> Link:
        """Remove and return the link between ``a`` and ``b``."""
        link = self.link_between(a, b)
        if link is None:
            raise TopologyError(f"no link between {a!r} and {b!r}")
        del self._links[link.name]
        del self._adjacency[a][b]
        del self._adjacency[b][a]
        self.version += 1
        return link

    def replace_node(self, node: Node) -> None:
        """Replace an existing node's record (e.g. to flip drain state)."""
        if node.name not in self._nodes:
            raise TopologyError(f"unknown node {node.name!r}")
        self._nodes[node.name] = node
        self.version += 1

    def replace_link(self, link: Link) -> None:
        """Replace an existing link's record (e.g. to flip drain state)."""
        if link.name not in self._links:
            raise TopologyError(f"unknown link {link.name}")
        self._links[link.name] = link
        self.version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError:
            raise TopologyError(f"unknown link {name!r}") from None

    def link_between(self, a: str, b: str) -> Optional[Link]:
        link_name = self._adjacency.get(a, {}).get(b)
        return self._links[link_name] if link_name else None

    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def node_names(self) -> List[str]:
        return list(self._nodes)

    def links(self) -> List[Link]:
        return list(self._links.values())

    def link_names(self) -> List[str]:
        """Canonical link names in insertion order (no per-link sort)."""
        return list(self._links)

    def neighbors(self, node: str) -> List[str]:
        if node not in self._adjacency:
            raise TopologyError(f"unknown node {node!r}")
        return list(self._adjacency[node])

    def degree(self, node: str) -> int:
        return len(self.neighbors(node))

    def directed_edges(self) -> Iterator[Tuple[str, str]]:
        """All directed edges (two per link), in deterministic order."""
        for link in sorted(self._links.values(), key=lambda link: link.name):
            yield link.a, link.b
            yield link.b, link.a

    def interfaces(self, include_external: bool = True) -> Iterator[Interface]:
        """All interfaces in the network, in deterministic order.

        Args:
            include_external: Also yield the one host-facing interface
                per router.
        """
        for src, dst in self.directed_edges():
            yield Interface(src, dst)
        if include_external:
            for name in sorted(self._nodes):
                yield Interface(name, EXTERNAL_PEER)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def total_capacity(self) -> float:
        """Sum of per-direction capacities over all links (both directions)."""
        return 2.0 * sum(link.capacity for link in self._links.values())

    def is_connected(self) -> bool:
        """True when every router can reach every other router."""
        if not self._nodes:
            return True
        seen = set()
        stack = [next(iter(self._nodes))]
        while stack:
            here = stack.pop()
            if here in seen:
                continue
            seen.add(here)
            stack.extend(n for n in self._adjacency[here] if n not in seen)
        return len(seen) == len(self._nodes)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Topology":
        """Deep-enough copy (records are frozen, so sharing them is safe)."""
        duplicate = Topology(name or self.name)
        for node in self._nodes.values():
            duplicate.add_node(node)
        for link in self._links.values():
            duplicate.add_link(link)
        return duplicate

    def without_drained(self) -> "Topology":
        """The operator-intended serving topology: drained gear removed."""
        serving = Topology(f"{self.name}:serving")
        for node in self._nodes.values():
            if not node.drained:
                serving.add_node(node)
        for link in self._links.values():
            if link.drained:
                continue
            if serving.has_node(link.a) and serving.has_node(link.b):
                serving.add_link(link)
        return serving

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` with capacity attributes."""
        import networkx as nx

        graph = nx.Graph(name=self.name)
        for node in self._nodes.values():
            graph.add_node(node.name, site=node.site, drained=node.drained)
        for link in self._links.values():
            graph.add_edge(link.a, link.b, capacity=link.capacity, drained=link.drained)
        return graph

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __repr__(self) -> str:
        return f"Topology({self.name!r}, nodes={self.num_nodes}, links={self.num_links})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._nodes == other._nodes and self._links == other._links

    def __hash__(self) -> int:  # pragma: no cover - mutable, but eq defined
        raise TypeError("Topology is mutable and unhashable")

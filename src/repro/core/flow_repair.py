"""Flow-conservation repair (the paper's R2 redundancy).

Section 4.1: "Formulating this as a dot product between the incidence
matrix M and v_partial, we can solve for up to |V| - 1 unknowns, the
rank of M, to recover missing/corrupted values."

We build exactly that system.  One conservation equation per router::

    sum(in-edges) + ext_in  =  sum(out-edges) + ext_out + dropped

Unknowns (flagged or missing values -- the "variables" in the paper's
flow vector) move to the left-hand side of ``A x = b``; knowns fold
into ``b``.  The least-squares solution gives candidate repairs.

*Which* unknowns are uniquely determined is a fact about a graph, not
a numerical question.  Every column of ``A`` is a signed incidence
vector over the routers plus a virtual *ground* vertex that has no
row: an edge ``u->v`` is +1 on v's row and -1 on u's; ``ext_in``,
``ext_out`` and ``drop`` are +-1 on one router's row, an edge from that
router to ground; an endpoint outside ``nodes`` is ground; a self-loop
``u->u`` and a column with no rows are loops.  So the unknown columns
form a graph, its rank is |vertices| - |components|, and an unknown is
determined iff it is a *bridge* of that graph (it lies on no cycle).
One on a cycle can trade off against the others around it, so it
stays unknown rather than be "repaired" with an arbitrary
minimum-norm guess.  The paper's |V| - 1 is the connected case with
no ground.

The solve is *component-scoped*: two unknowns interact only when they
touch a common conservation equation, so the unknown-coefficient
matrix is block-diagonal over the connected components of that
interaction graph.  Each component is solved independently (the
minimum-norm solution, residual, rank and bridges of the block
decomposition coincide with the global system's), which keeps a solve
on an epoch with localized corruption proportional to the corrupted
region rather than the whole WAN -- and makes individual component
solutions cacheable across epochs (:class:`ConservationSolveCache`).

One solver, two front ends: :meth:`ConservationSystem.solve` folds
per-epoch values in from dicts (``None`` = unknown) one variable at a
time -- the python backend's reference path -- and
:meth:`ConservationSystem.solve_array` folds them in from one flat
array (NaN = unknown) with a handful of array operations over the
system's precomputed lowering.  Both hand the same unknown set, the
same right-hand side bit for bit, and the same scale to one shared
component solve, so their results are identical.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "VarKey",
    "edge_var",
    "ext_in_var",
    "ext_out_var",
    "drop_var",
    "RepairResult",
    "ConservationSolveCache",
    "ConservationSystem",
    "solve_flow_conservation",
]

#: Variable identifiers in the conservation system.
VarKey = Tuple[str, ...]


def edge_var(src: str, dst: str) -> VarKey:
    return ("edge", src, dst)


def ext_in_var(node: str) -> VarKey:
    return ("ext_in", node)


def ext_out_var(node: str) -> VarKey:
    return ("ext_out", node)


def drop_var(node: str) -> VarKey:
    return ("drop", node)


@dataclass
class RepairResult:
    """Outcome of one conservation solve.

    Attributes:
        values: Solved value per unknown; ``None`` when the unknown is
            not uniquely determined by the system.
        residual: Relative residual of the least-squares solution
            (``||Ax - b|| / max(1, ||b||)``); a large residual means
            the *known* values already violate conservation, i.e. more
            corruption than the unknowns can explain.
        rank: Rank of the unknown-coefficient matrix: per interaction
            component, its routers plus ground (when a member touches
            it) less one.
        num_unknowns: How many unknowns the system had.
    """

    values: Dict[VarKey, Optional[float]] = field(default_factory=dict)
    residual: float = 0.0
    rank: int = 0
    num_unknowns: int = 0

    def solved(self) -> Dict[VarKey, float]:
        """Only the uniquely determined unknowns."""
        return {key: value for key, value in self.values.items() if value is not None}

    def is_consistent(self, tolerance: float) -> bool:
        return self.residual <= tolerance


#: One solved component: ``((var_key, value_or_None), ...)`` in member
#: order, the component's squared residual, and its effective rank.
_ComponentSolution = Tuple[Tuple[Tuple[VarKey, Optional[float]], ...], float, int]


class ConservationSolveCache:
    """LRU memo of per-component conservation solves.

    A component's solution is fully determined by its unknown keys, the
    equation rows it touches, and the folded-in right-hand side on
    those rows -- all of which the cache key captures exactly.  Because
    ``numpy.linalg.lstsq`` is deterministic for identical inputs (and
    which unknowns are determined depends on the keys and rows alone),
    a cache hit returns a *bitwise-identical* solution to a
    fresh solve, so cached and uncached passes stay differentially
    indistinguishable.

    Across epochs with low churn, the folded right-hand side of an
    untouched corrupted region repeats verbatim, so the vector
    backend's R2 stage degenerates to dictionary lookups.  The hits
    show on catalog replays (``tests/engine/test_vector.py``'s
    ``RECORDED_REPAIR_COUNTS``: S17 solves 2 components and reuses 4
    over three epochs).  The bench's ``engine_faulty`` ring never hits:
    one cycle of its 60 epochs holds 408-436 distinct components
    (seeds 0-2), more than ``max_entries``, and cycling through them in
    order evicts each entry just before it comes round again.  Its
    ``engine.repair_solves`` therefore prices the uncached solve.

    Args:
        max_entries: Evict least-recently-used solutions beyond this.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._entries: "OrderedDict[Tuple, _ComponentSolution]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple) -> Optional[_ComponentSolution]:
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        return None

    def put(self, key: Tuple, solution: _ComponentSolution) -> None:
        self._entries[key] = solution
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)


#: Which value mapping each conservation variable reads from.
_FIELD_EDGE, _FIELD_EXT_IN, _FIELD_EXT_OUT, _FIELD_DROP = range(4)


@dataclass(frozen=True)
class ConservationSystem:
    """The topology-derived structure of the conservation system.

    Everything about ``A x = b`` that does not depend on this epoch's
    measured values: which variable touches which node equation with
    which coefficient.  Building it costs one pass over the topology;
    :meth:`solve` then only has to fold in per-epoch values, so an
    always-on caller (see :mod:`repro.engine.cache`) can reuse one
    system across every epoch on an unchanged topology.

    Attributes:
        nodes: Every router, one conservation equation each.
        edges: Every directed edge.
        entries: Per variable (in canonical order): its key, which
            mapping supplies its value (``_FIELD_*``), the lookup key
            into that mapping, and the ``(row, coefficient)`` pairs it
            contributes to.
        var_col: Per variable (entries order), its column in the flat
            layout ``[edges | ext_in | ext_out | drops]`` that
            :meth:`solve_array` reads.
        pair_rows: Per ``(variable, row)`` pair, in entries order and
            each variable's own row order: the equation row.
        pair_coef: Per pair, the coefficient.
        pair_var: Per pair, the variable (entries index) it belongs to.
    """

    nodes: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    entries: Tuple[Tuple[VarKey, int, Hashable, Tuple[Tuple[int, float], ...]], ...]
    var_col: np.ndarray = field(compare=False, repr=False)
    pair_rows: np.ndarray = field(compare=False, repr=False)
    pair_coef: np.ndarray = field(compare=False, repr=False)
    pair_var: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def build(
        cls, nodes: Sequence[str], edges: Sequence[Tuple[str, str]]
    ) -> "ConservationSystem":
        """Derive the system structure for one topology.

        One equation per router, written as
        ``sum(in) + ext_in - sum(out) - ext_out - drop = 0``.
        """
        node_index = {node: i for i, node in enumerate(nodes)}
        entries: List[Tuple[VarKey, int, Hashable, Tuple[Tuple[int, float], ...]]] = []
        for src, dst in edges:
            rows: List[Tuple[int, float]] = []
            if dst in node_index:
                rows.append((node_index[dst], 1.0))
            if src in node_index:
                rows.append((node_index[src], -1.0))
            entries.append((edge_var(src, dst), _FIELD_EDGE, (src, dst), tuple(rows)))
        for node in nodes:
            row = node_index[node]
            entries.append((ext_in_var(node), _FIELD_EXT_IN, node, ((row, 1.0),)))
            entries.append((ext_out_var(node), _FIELD_EXT_OUT, node, ((row, -1.0),)))
            entries.append((drop_var(node), _FIELD_DROP, node, ((row, -1.0),)))

        # The same (variable, row) pairs, flattened from ``entries`` so
        # their order is the dict walk's by construction.
        pairs = [(row, coef, j) for j, e in enumerate(entries) for row, coef in e[3]]
        pair_rows, pair_coef, pair_var = zip(*pairs) if pairs else ((), (), ())
        num_edges, num_nodes = len(edges), len(nodes)
        node_var = np.arange(num_nodes)[:, None] + num_nodes * np.arange(3)
        return cls(
            nodes=tuple(nodes),
            edges=tuple(tuple(e) for e in edges),
            entries=tuple(entries),
            var_col=np.concatenate((np.arange(num_edges), num_edges + node_var.ravel())),
            pair_rows=np.array(pair_rows, dtype=np.intp),
            pair_coef=np.array(pair_coef, dtype=float),
            pair_var=np.array(pair_var, dtype=np.intp),
        )

    def solve(
        self,
        edge_values: Mapping[Tuple[str, str], Optional[float]],
        ext_in: Mapping[str, Optional[float]],
        ext_out: Mapping[str, Optional[float]],
        drops: Mapping[str, Optional[float]],
        cache: Optional[ConservationSolveCache] = None,
    ) -> RepairResult:
        """Solve for all ``None`` values given this epoch's knowns.

        The dict front end, one variable at a time: the python
        backend's reference path (:meth:`solve_array` is its array
        twin).  The system decomposes into independent blocks over the
        connected components of the unknown-interaction graph (two
        unknowns interact when they touch a common equation); each
        block is solved on its own submatrix.  Equations touching no
        unknown contribute their imbalance directly to the residual.

        Args:
            cache: Optional :class:`ConservationSolveCache`; component
                solutions are looked up / stored there.  Hits are
                bitwise-identical to fresh solves.
        """
        mappings = (edge_values, ext_in, ext_out, drops)
        rhs = np.zeros(len(self.nodes))
        unknown: List[int] = []
        for j, (_key, field_id, lookup, rows) in enumerate(self.entries):
            value = mappings[field_id].get(lookup)
            if value is None:
                unknown.append(j)
            else:
                for row, coefficient in rows:
                    rhs[row] -= coefficient * value

        scale = max(1.0, _system_scale(edge_values, ext_in, ext_out))
        return self._finish(unknown, rhs, scale, cache)

    def solve_array(
        self, values: np.ndarray, cache: Optional[ConservationSolveCache] = None
    ) -> RepairResult:
        """Solve for all NaN values of one flat value array.

        The array front end: ``values`` is laid out
        ``[edges | ext_in | ext_out | drops]`` in :attr:`edges` /
        :attr:`nodes` order, NaN marking an unknown.  The result is
        identical, bit for bit and in the same key order, to
        :meth:`solve` on the same values as dicts with ``None`` for
        NaN: the unknowns come out in entries order, and ``bincount``
        accumulates each row's right-hand side in the same order the
        dict walk does (an unknown adds a signed zero, which changes
        nothing).

        Args:
            values: ``E + 3N`` float64 values.
            cache: As for :meth:`solve`.
        """
        by_var = values[self.var_col]
        missing = np.isnan(by_var)
        known = np.where(missing, 0.0, by_var)
        rhs = np.bincount(
            self.pair_rows,
            weights=-(self.pair_coef * known[self.pair_var]),
            minlength=len(self.nodes),
        )
        # Scale over the known edge and external values (not drops),
        # like ``_system_scale``.
        head = values[: len(self.edges) + 2 * len(self.nodes)]
        head = head[~np.isnan(head)]
        scale = max(1.0, float(head.max())) if head.size else 1.0
        return self._finish(np.flatnonzero(missing).tolist(), rhs, scale, cache)

    def _finish(
        self,
        unknown: List[int],
        rhs: np.ndarray,
        scale: float,
        cache: Optional[ConservationSolveCache],
    ) -> RepairResult:
        """The solve both front ends share, given the unknowns (entries
        indices, in entries order), the folded right-hand side, and the
        residual scale."""
        if not unknown:
            residual = float(np.linalg.norm(rhs)) / scale
            return RepairResult(values={}, residual=residual, rank=0, num_unknowns=0)

        unknown_entries = [self.entries[j] for j in unknown]
        solved: Dict[VarKey, Optional[float]] = {}
        residual_sq = 0.0
        total_rank = 0
        touched_rows: set = set()
        for members in _interaction_components(unknown_entries):
            component_rows = sorted(
                {row for j in members for row, _coeff in unknown_entries[j][3]}
            )
            touched_rows.update(component_rows)
            b = rhs[component_rows]
            key = (
                tuple(unknown_entries[j][0] for j in members),
                tuple(unknown_entries[j][3] for j in members),
                tuple(b.tolist()),
            )
            solution = cache.get(key) if cache is not None else None
            if solution is None:
                solution = _solve_component(unknown_entries, members, component_rows, b)
                if cache is not None:
                    cache.put(key, solution)
            component_values, component_residual_sq, component_rank = solution
            residual_sq += component_residual_sq
            total_rank += component_rank
            solved.update(component_values)

        for row, imbalance in enumerate(rhs.tolist()):
            if row not in touched_rows:
                residual_sq += imbalance**2
        residual = float(np.sqrt(residual_sq)) / scale

        # Reassemble in global entries order so downstream finding
        # emission is independent of the component partition.
        values: Dict[VarKey, Optional[float]] = {
            entry[0]: solved[entry[0]] for entry in unknown_entries
        }
        return RepairResult(
            values=values,
            residual=residual,
            rank=total_rank,
            num_unknowns=len(unknown_entries),
        )


def _interaction_components(
    unknown_entries: Sequence[Tuple[VarKey, int, Hashable, Tuple[Tuple[int, float], ...]]],
) -> List[List[int]]:
    """Connected components of the unknown-interaction graph.

    Two unknowns interact when they touch a common equation row.
    Components are returned with members in entry order, ordered by
    their first member, so the partition is deterministic.
    """
    parent = list(range(len(unknown_entries)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    row_owner: Dict[int, int] = {}
    for j, (_key, _field, _lookup, rows) in enumerate(unknown_entries):
        for row, _coeff in rows:
            owner = row_owner.get(row)
            if owner is None:
                row_owner[row] = j
            else:
                root_a, root_b = find(j), find(owner)
                if root_a != root_b:
                    parent[root_a] = root_b

    groups: Dict[int, List[int]] = {}
    for j in range(len(unknown_entries)):
        groups.setdefault(find(j), []).append(j)
    return sorted(groups.values(), key=lambda members: members[0])


def _solve_component(
    unknown_entries: Sequence[Tuple[VarKey, int, Hashable, Tuple[Tuple[int, float], ...]]],
    members: Sequence[int],
    component_rows: Sequence[int],
    b: np.ndarray,
) -> _ComponentSolution:
    """Least squares for one component block (``b``: the right-hand
    side on ``component_rows``); a value is kept only when its unknown
    is a bridge of the block's graph."""
    row_position = {row: i for i, row in enumerate(component_rows)}
    height, width = len(component_rows), len(members)
    flat: List[int] = []
    coefs: List[float] = []
    # Each column as a graph edge over the rows plus ground (vertex
    # ``height``), which stands in for every endpoint without a row.
    endpoints: List[Tuple[int, int]] = []
    for column, j in enumerate(members):
        rows = unknown_entries[j][3]
        for row, coefficient in rows:
            flat.append(row_position[row] * width + column)
            coefs.append(coefficient)
        ends = [row_position[row] for row, _coefficient in rows] + [height, height]
        endpoints.append((ends[0], ends[1]))
    # Scattered from index lists: bincount adds each (row, column)
    # pair's coefficients onto zero in list order, as ``+=`` would.
    matrix = np.bincount(
        np.array(flat, dtype=np.intp), weights=coefs, minlength=height * width
    ).reshape(height, width)

    solution, _residuals, _rank, _singular = np.linalg.lstsq(matrix, b, rcond=None)
    fitted = matrix @ solution
    residual_sq = float(np.dot(fitted - b, fitted - b))

    # The block's graph is connected (its unknowns chain through shared
    # rows), so its rank is its vertex count less one.
    grounded = any(height in edge for edge in endpoints)
    rank = height + grounded - 1
    values: List[Tuple[VarKey, Optional[float]]] = []
    for j, value, determined in zip(members, solution.tolist(), _bridges(endpoints, height + 1)):
        key = unknown_entries[j][0]
        if not determined:
            values.append((key, None))
            continue
        if -1e-6 < value < 0:
            value = 0.0
        values.append((key, value))
    return tuple(values), residual_sq, rank


def _bridges(endpoints: Sequence[Tuple[int, int]], num_vertices: int) -> List[bool]:
    """Per edge, whether it is a bridge (lies on no cycle) of the
    multigraph on ``num_vertices`` vertices, searched from vertex 0
    (an edge the search does not reach reads ``False``).

    An iterative Tarjan lowlink search.  Parallel edges are told apart
    by index, so a 2-cycle holds no bridge; a loop is a back edge to
    its own vertex, so it is never one.
    """
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(num_vertices)]
    for edge, (u, v) in enumerate(endpoints):
        adjacency[u].append((v, edge))
        adjacency[v].append((u, edge))
    order = [-1] * num_vertices
    low = [0] * num_vertices
    bridge = [False] * len(endpoints)
    order[0] = 0
    visited = 1
    stack = [(0, -1, iter(adjacency[0]))]
    while stack:
        vertex, via, neighbours = stack[-1]
        for nxt, edge in neighbours:
            if edge == via:
                continue
            if order[nxt] < 0:
                order[nxt] = low[nxt] = visited
                visited += 1
                stack.append((nxt, edge, iter(adjacency[nxt])))
                break
            low[vertex] = min(low[vertex], order[nxt])
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[vertex])
                bridge[via] = low[vertex] > order[parent]
    return bridge


def solve_flow_conservation(
    nodes: Sequence[str],
    edges: Sequence[Tuple[str, str]],
    edge_values: Mapping[Tuple[str, str], Optional[float]],
    ext_in: Mapping[str, Optional[float]],
    ext_out: Mapping[str, Optional[float]],
    drops: Mapping[str, Optional[float]],
) -> RepairResult:
    """Solve the conservation system for all ``None`` values.

    One-shot convenience wrapper: builds the
    :class:`ConservationSystem` for this topology and solves it.
    Callers with a stable topology should build (or cache) the system
    once and call :meth:`ConservationSystem.solve` per epoch.

    Args:
        nodes: Every router (one equation each).
        edges: Every directed edge in the network.
        edge_values: Known hardened flow per directed edge, ``None``
            for unknowns.
        ext_in: Known external ingress per router, ``None`` unknown.
        ext_out: Known external egress per router, ``None`` unknown.
        drops: Known dropped rate per router, ``None`` unknown.

    Returns:
        A :class:`RepairResult`; values are clamped at zero when the
        solve lands a hair negative (rates cannot be negative), but
        meaningfully negative solutions are preserved so callers can
        flag the inconsistency.
    """
    return ConservationSystem.build(nodes, edges).solve(edge_values, ext_in, ext_out, drops)


def _system_scale(
    edge_values: Mapping[Tuple[str, str], Optional[float]],
    ext_in: Mapping[str, Optional[float]],
    ext_out: Mapping[str, Optional[float]],
) -> float:
    """Typical magnitude of the system, for relative residuals."""
    known = [
        value
        for mapping in (edge_values, ext_in, ext_out)
        for value in mapping.values()
        if value is not None
    ]
    return max(known) if known else 1.0

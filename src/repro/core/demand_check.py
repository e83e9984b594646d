"""Dynamic checking of the demand input (paper Section 4.1).

The demand matrix D and the hardened interface counters are
interdependent: traffic in ``D[i][j]`` contributes to counters along
the whole i -> j path, and in particular crosses the *external*
interfaces at exactly its ingress and egress routers.  The paper's
checks, verbatim:

- "the total external ingress rate at a router must equal the reported
  sum of demands from that router to all other routers" (row sums),
- "total external egress at a router must equal the reported sum of
  demands from all other routers to this router" (column sums).

That yields 2v invariants -- "not enough to fully re-derive D (which
contains v^2 entries) but [they] significantly constrain its range of
acceptable values" -- each accepted within the equality threshold
tau_e.

One refinement beyond the paper's sketch: the egress equality only
holds on a loss-free network.  When the hardened drop counters show the
network is shedding traffic, delivered egress legitimately falls below
the demand's column sums; the checker then widens each egress
invariant's tolerance by the hardened network-wide loss fraction (an
upper bound on how much any one router's egress can be depressed by
drops) and notes that it did so.  Ingress invariants are unaffected --
demand enters before any drop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.config import HodorConfig
from repro.core.invariants import CheckResult, Invariant, InvariantResult
from repro.core.signals import HardenedState
from repro.net.demand import DemandMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.cache import TopologyCache

__all__ = ["DemandChecker"]


class DemandChecker:
    """Validates a demand matrix against hardened external counters.

    Args:
        config: Pipeline configuration (tau_e and floors are used here).
        cache: Optional prebuilt topology cache; when the hardened state
            covers exactly the cached routers (the pipeline case), the
            checker reuses the cache's sorted router order instead of
            re-sorting per call.
    """

    def __init__(
        self,
        config: Optional[HodorConfig] = None,
        cache: Optional["TopologyCache"] = None,
    ) -> None:
        self._config = config or HodorConfig()
        self._cache = cache

    def check(self, demand: DemandMatrix, hardened: HardenedState) -> CheckResult:
        """Evaluate the 2v demand invariants.

        Routers present in the hardened state but absent from the
        demand matrix produce violated invariants only if they carry
        external traffic (a router missing from D while hosts push
        traffic through it *is* a missing-demand bug).

        Args:
            demand: The demand matrix under validation.
            hardened: Step-2 output for this epoch.
        """
        result = CheckResult(input_name="demand")
        floor = max(self._config.rate_floor, self._config.active_threshold)

        total_dropped = self.total_dropped(hardened)
        if total_dropped > floor:
            result.notes.append(self.dropped_note(total_dropped))

        invariants, notes = self.check_node_slice(
            demand, hardened, self._hardened_nodes(hardened), total_dropped
        )
        result.results.extend(invariants)
        result.notes.extend(notes)

        skipped = result.num_skipped
        if skipped:
            result.notes.append(self.skipped_note(skipped))
        return result

    @staticmethod
    def dropped_note(total_dropped: float) -> str:
        """The loss-allowance note emitted when drops widen egress checks."""
        return (
            f"hardened drop counters show {total_dropped:.6g} of in-network "
            "loss; egress invariants widened by that absolute allowance"
        )

    @staticmethod
    def skipped_note(skipped: int) -> str:
        """The trailing note counting skipped invariants."""
        return f"{skipped} invariants skipped: hardened external counters unknown"

    def _hardened_nodes(self, hardened: HardenedState) -> Sequence[str]:
        """Sorted routers under check, reusing the cache's order when valid."""
        nodes = set(hardened.ext_in) | set(hardened.ext_out)
        if self._cache is not None and nodes == set(self._cache.nodes):
            return self._cache.sorted_nodes
        return sorted(nodes)

    def check_node_slice(
        self,
        demand: DemandMatrix,
        hardened: HardenedState,
        nodes: Sequence[str],
        total_dropped: float,
    ) -> Tuple[List[InvariantResult], List[str]]:
        """Row/col-sum invariants for one contiguous slice of routers.

        The slice worker behind :meth:`check`, which calls it once with
        every router.
        """
        invariants: List[InvariantResult] = []
        notes: List[str] = []
        for node in nodes:
            node_invariants, node_notes = self.check_node_entity(
                demand, hardened, node, total_dropped
            )
            invariants.extend(node_invariants)
            notes.extend(node_notes)
        return invariants, notes

    def check_node_entity(
        self,
        demand: DemandMatrix,
        hardened: HardenedState,
        node: str,
        total_dropped: float,
    ) -> Tuple[Tuple[InvariantResult, InvariantResult], Tuple[str, ...]]:
        """Row/col-sum invariants for one router (per-entity unit).

        Depends on the demand matrix, this router's hardened external
        counters, and the network-wide ``total_dropped`` (which widens
        the egress tolerance) -- a change to any of those dirties the
        node on the vector backend.
        """
        tau_e = self._config.tau_e
        floor = max(self._config.rate_floor, self._config.active_threshold)
        demand_nodes = set(demand.nodes)
        notes: Tuple[str, ...] = ()

        row_sum = demand.row_sum(node) if node in demand_nodes else 0.0
        column_sum = demand.column_sum(node) if node in demand_nodes else 0.0
        if node not in demand_nodes:
            notes = (
                f"{node} missing from demand matrix; treating its demand as zero",
            )

        ext_in = hardened.ext_in.get(node)
        ingress = Invariant(
            name=f"demand/row-sum/{node}",
            description=(
                f"sum_j D[{node}][j] == external ingress at {node} "
                f"({_fmt(row_sum)} vs {_fmt(ext_in.value if ext_in else None)})"
            ),
            lhs=row_sum,
            rhs=ext_in.value if ext_in else None,
            tolerance=tau_e,
        ).evaluate(floor)

        ext_out = hardened.ext_out.get(node)
        # A router's egress may legitimately fall short of its
        # column sum by at most the total traffic the network
        # dropped (an absolute, path-agnostic bound); translate
        # that into this invariant's relative tolerance.
        magnitude = max(
            column_sum, ext_out.value if ext_out and ext_out.known else 0.0, floor
        )
        egress_tau = min(0.95, tau_e + total_dropped / magnitude)
        egress = Invariant(
            name=f"demand/col-sum/{node}",
            description=(
                f"sum_i D[i][{node}] == external egress at {node} "
                f"({_fmt(column_sum)} vs {_fmt(ext_out.value if ext_out else None)})"
            ),
            lhs=column_sum,
            rhs=ext_out.value if ext_out else None,
            tolerance=egress_tau,
        ).evaluate(floor)
        return (ingress, egress), notes


    @staticmethod
    def total_dropped(hardened: HardenedState) -> float:
        """Total in-network loss per the hardened drop counters."""
        return sum(v.value for v in hardened.drops.values() if v.known and v.value > 0)


def _fmt(value: Optional[float]) -> str:
    return "?" if value is None else f"{value:.6g}"

"""Epoch-time array evaluation for the vector backend.

:class:`VectorValidator` re-expresses the core pipeline stages on the
compiled :class:`~repro.core.vector.model.VectorModel` arrays:

- **collect** packs each signal family into dense slot arrays -- from a
  snapshot's family dicts, or straight from a sealed epoch's update
  events through the model's path index -- with ``np.fromiter`` column
  kernels (NaN codes missing rates, small ints code tri-state
  booleans); any entry the kernels cannot prove benign -- malformed,
  stale, boolean-typed, out of universe -- is routed through the
  corresponding serial per-entity unit so coercion findings and crash
  behavior stay byte-identical;
- **R1 symmetry** is one paired-column comparison (``tx[edge]`` vs
  ``rx[edge_rev[edge]]``) plus vectorized relative-gap math that
  reproduces the scalar arithmetic bit for bit;
- **R2 conservation** gates on an ``isnan``-any over the flow arrays,
  solves the flat ``[edges | ext_in | ext_out | drops]`` array through
  the conservation system's array front end
  (``ConservationSystem.solve_array``: the serial component solver
  behind it, cached bitwise in :class:`ConservationSolveCache`), writes
  through the hardener's ``apply_repairs``, and scatter-updates the
  post-repair value arrays;
- **link status / drains** reduce each entity to a small integer
  category; one hardened object per distinct category is interned and
  findings are memoized per ``(slot, category)``, so steady-state
  epochs allocate almost nothing;
- **dynamic checks** gather per-entity signature arrays in the
  checkers' sorted orders and call the serial per-entity check units
  only for entities whose signature moved; each entity's results are
  kept beside their tally (violated and evaluated counts), so a
  report's ``CheckResult`` and its counts are put together without
  walking the results of entities that did not move.

Parity contract (enforced by ``tests/engine/test_vector.py`` and the
fuzz oracle's ``vector`` mode): reports -- findings, invariants,
notes, and :class:`~repro.obs.provenance.VerdictProvenance` -- are
identical to the per-entity path's.  The per-entity units this module
is the array twin of: ``collect_counter_entity``,
``collect_status_entity``, ``collect_drain_entity``,
``collect_drain_reason_entity``, ``collect_link_drain_entity``,
``collect_drop_entity`` (exception path + oracle; both packers
dispatch these six through the one ``_scatter``),
``harden_edge_entity`` / ``harden_external_entity`` /
``harden_node_drain_entity`` / ``harden_link_drain_entity``
(replicated as array math), ``repair_flows`` (its gate and gather
replicated as array math; solve and write shared through
``solve_array`` and ``apply_repairs``),
``harden_link_status_entity`` (interned via
:func:`~repro.core.link_status.combine_codes`; serial on exceptional
probes), and ``check_node_entity`` / ``check_link_entity`` of the
demand/topology/drain checkers (called on signature change).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.demand_check import DemandChecker
from repro.core.drain_reasons import DrainReason
from repro.core.flow_repair import ConservationSolveCache
from repro.core.invariants import CheckResult, CheckTally, InvariantResult
from repro.core.link_status import combine_codes
from repro.core.pipeline import Hodor
from repro.core.report import ValidationReport
from repro.core.signals import (
    CollectedCounter,
    CollectedStatus,
    Confidence,
    DrainVerdict,
    Finding,
    FindingSeverity,
    HardenedDrain,
    HardenedState,
    HardenedValue,
    LinkVerdict,
)
from repro.core.vector.model import VectorModel
from repro.obs.trace import NullTracer
from repro.telemetry.counters import CounterReading
from repro.telemetry.paths import PathError, SignalKind
from repro.telemetry.snapshot import LinkStatusReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.control.inputs import ControllerInputs
    from repro.core.config import HodorConfig
    from repro.engine.cache import TopologyCache
    from repro.engine.stats import EngineStats
    from repro.stream.events import UpdateEvent
    from repro.telemetry.snapshot import NetworkSnapshot

__all__ = ["VectorValidator"]

_INF = float("inf")
#: Largest int magnitude float64 represents exactly; bigger timestamps
#: go through the serial unit so staleness math never loses precision.
_EXACT_INT = 2**52

# Code tables (plain immutable literals only; all arrays and interned
# objects live on the validator instance).
_STATUS_STRS = ("up", "down", "conflict", "unknown")
_ACTIVE_VALS = (False, True, None)
_PROBE_STRS = ("ok", "fail", "unknown")
_TRI = (None, False, True)
#: The meta every rate update carries (``repro.stream.events``).
_RATE_META = ("sequence", "timestamp", "window_s")

# The column kernels: each maps one raw column to codes and is the one
# place that decides which values the array path may take as they are.
# Everything else is flagged for the family's serial ``collect_*_entity``
# unit, so coercion findings and crash behavior stay the serial path's.


def _rate_column(raw) -> np.ndarray:
    """Finite non-negative floats as they are, NaN for ``None``, and
    -1.0 (valid rates are >= 0) for anything else."""
    return np.fromiter(
        (
            v
            if type(v) is float and 0.0 <= v < _INF
            else (np.nan if v is None else -1.0)
            for v in raw
        ),
        np.float64,
        count=len(raw),
    )


def _tri_column(raw) -> np.ndarray:
    """1 / 0 / -1 for the objects ``True`` / ``False`` / ``None``, and -2
    for anything else."""
    return np.fromiter(
        (1 if v is True else (0 if v is False else (-1 if v is None else -2)) for v in raw),
        np.int8,
        count=len(raw),
    )


def _stamp_column(raw) -> np.ndarray:
    """Float timestamps as they are, exactly representable ints as
    floats, and -inf for anything else."""
    return np.fromiter(
        (
            t
            if type(t) is float
            else (float(t) if type(t) is int and -_EXACT_INT < t < _EXACT_INT else -_INF)
            for t in raw
        ),
        np.float64,
        count=len(raw),
    )


def _nan_if_none(value: Optional[float]) -> float:
    return np.nan if value is None else value


def _bit(value: Optional[bool]) -> int:
    """A coerced tri-state as the int8 arrays code it."""
    return -1 if value is None else int(value)


def _neq(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Elementwise "signature moved" mask; NaN equals NaN.

    Exact bit comparison is the reuse guard's contract: a spurious
    difference costs a recompute, a tolerance could reuse stale output
    and break parity.  Returns
    ``None`` (nothing moved) when both operands are the same array.
    """
    if a is b:
        return None
    moved = a != b
    # NaN != NaN, so an epoch that moved nothing and holds no NaN ends here.
    if moved.any():
        moved &= ~(np.isnan(a) & np.isnan(b))
    return moved


class _CheckEntries:
    """One check family's per-entity entries, each beside its tally.

    :meth:`store` is the only writer: an entity's results, notes and
    counts change together, when its ``check_*_entity`` unit is re-run.
    :meth:`flat` is what a report is built from, and costs nothing on an
    epoch that stored nothing.
    """

    def __init__(self, size: int) -> None:
        self.results = np.empty(size, dtype=object)
        self.notes = np.empty(size, dtype=object)
        self.num_violated = np.zeros(size, dtype=np.int64)
        self.num_evaluated = np.zeros(size, dtype=np.int64)
        self._flat: Optional[Tuple[tuple, tuple, CheckTally]] = None

    def store(
        self, i: int, results: Tuple[InvariantResult, ...], notes: Tuple[str, ...] = ()
    ) -> None:
        tally = CheckTally.of(results)
        self.results[i] = results
        self.notes[i] = notes
        self.num_violated[i] = len(tally.violations)
        self.num_evaluated[i] = tally.num_evaluated
        self._flat = None

    def flat(self) -> Tuple[tuple, tuple, CheckTally]:
        """``(results, notes, tally)`` over every entity in order,
        re-flattened only after a :meth:`store`; the violations come
        from the entities whose violated count is non-zero."""
        if self._flat is None:
            results = tuple(chain.from_iterable(self.results.tolist()))
            hit = np.flatnonzero(self.num_violated)
            self._flat = (
                results,
                tuple(chain.from_iterable(self.notes.tolist())),
                CheckTally(
                    tuple(r for entry in self.results[hit].tolist() for r in entry if r.violated),
                    int(self.num_evaluated.sum()),
                    len(results),
                ),
            )
        return self._flat


def _check_result(
    input_name: str, *families: _CheckEntries, notes: Sequence[str] = ()
) -> CheckResult:
    """The families' entries as one report-owned :class:`CheckResult`
    (fresh lists, headed by ``notes``) with their tallies handed over."""
    flats = [family.flat() for family in families]
    result = CheckResult(
        input_name,
        results=list(chain.from_iterable(results for results, _, _ in flats)),
        notes=[*notes, *chain.from_iterable(family_notes for _, family_notes, _ in flats)],
    )
    result.hand_over(
        chain.from_iterable(tally.violations for _, _, tally in flats),
        sum(tally.num_evaluated for _, _, tally in flats),
    )
    return result


class _PackedStatuses:
    """``collected.statuses``-shaped read view over the packed arrays."""

    __slots__ = ("_v",)

    def __init__(self, validator: "VectorValidator") -> None:
        self._v = validator

    def get(self, key, default=None):
        v = self._v
        obj = v._extra_statuses.get(key)
        if obj is not None:
            return obj
        idx = v._model.edge_index.get(key)
        if idx is None or not v._st_present[idx]:
            return default
        code = v._st_oper[idx]
        # admin_up is never read downstream of collection.
        return CollectedStatus(oper_up=None if code < 0 else bool(code), admin_up=None)


class _PackedProbes:
    """``collected.probes``-shaped read view over the packed arrays."""

    __slots__ = ("_v",)

    def __init__(self, validator: "VectorValidator") -> None:
        self._v = validator

    def get(self, key, default=None):
        v = self._v
        if key in v._extra_probes:
            return v._extra_probes[key]
        idx = v._model.edge_index.get(key)
        if idx is None:
            return default
        code = v._pr[idx]
        return default if code < 0 else bool(code)


class _CollectedView:
    """Lazy ``CollectedState`` facade for the serial units we delegate to.

    Only the accessors the delegated units actually touch exist:
    ``counter()`` (R2 arbitration, link-status fallback),
    ``statuses.get`` and ``probes.get`` (link-status fallback).
    """

    __slots__ = ("_v", "statuses", "probes")

    def __init__(self, validator: "VectorValidator") -> None:
        self._v = validator
        self.statuses = _PackedStatuses(validator)
        self.probes = _PackedProbes(validator)

    def counter(self, node: str, peer: str) -> Optional[CollectedCounter]:
        v = self._v
        obj = v._counter_objs.get((node, peer))
        if obj is not None:
            return obj
        idx = v._model.counter_slot.get((node, peer))
        if idx is None or not v._cnt_present[idx]:
            return None
        rx = v._cnt_rx[idx]
        tx = v._cnt_tx[idx]
        return CollectedCounter(
            rx=None if math.isnan(rx) else float(rx),
            tx=None if math.isnan(tx) else float(tx),
            timestamp=float(v._cnt_ts[idx]),
        )


class VectorValidator:
    """Array-compiled epoch validation for one topology fingerprint.

    Same stage spans, stats and reports as the serial per-entity
    pipeline.  Every epoch is evaluated on the compiled arrays with
    cross-epoch object reuse keyed on exact value signatures, so cost
    tracks churn.

    Args:
        config: Pipeline configuration.
        cache: The topology cache shared with the serial path.
        components: The per-topology pipeline components (collector,
            hardener, checkers) -- the serial units double as the
            exception path and the differential oracle.
        stats: Engine counters; stage timings and reuse counts land here.
        tracer: Optional tracer; stage spans are annotated with
            recomputed/reused entity counts.
        model: Precompiled :class:`VectorModel` (from
            :class:`~repro.engine.cache.VectorModelStore`); compiled
            on the spot when omitted.
    """

    def __init__(
        self,
        config: HodorConfig,
        cache: TopologyCache,
        components,
        stats: EngineStats,
        tracer=None,
        model: Optional[VectorModel] = None,
    ) -> None:
        self._config = config
        self._cache = cache
        self._components = components
        self._stats = stats
        self._tracer = tracer if tracer is not None else NullTracer()
        self._model = model if model is not None else VectorModel.from_cache(cache)
        self._solver_cache = ConservationSolveCache()

        m = self._model
        self._link_name_set = frozenset(m.link_names)
        # edge index -> owning link index (marks exceptional-probe links).
        edge_link = np.empty(m.num_edges, dtype=np.int64)
        edge_link[m.link_ab] = np.arange(m.num_links, dtype=np.int64)
        edge_link[m.link_ba] = np.arange(m.num_links, dtype=np.int64)
        self._edge_link = edge_link
        self._reason_code = {reason: i for i, reason in enumerate(tuple(DrainReason))}

        # Interned shared objects (frozen dataclasses; one per disposition).
        self._hv_both = HardenedValue(None, Confidence.UNKNOWN, "no measurements")
        self._hv_one = HardenedValue(None, Confidence.UNKNOWN, "one measurement missing")
        self._hv_mismatch = HardenedValue(None, Confidence.UNKNOWN, "R1 mismatch")
        self._edge_fnd_memo: Dict[Tuple[int, int], Tuple[Finding, ...]] = {}
        self._ext_fnd_memo: Dict[int, Tuple[Finding, ...]] = {}
        self._ls_intern: Dict[int, object] = {}
        self._ls_usable = np.zeros(36, dtype=bool)
        self._ls_fnd_memo: Dict[Tuple[int, int], Tuple[Finding, ...]] = {}
        self._nd_intern: Dict[int, HardenedDrain] = {}
        self._nd_fnd_memo: Dict[Tuple[int, int], Tuple[Finding, ...]] = {}
        self._ld_intern: Dict[int, HardenedDrain] = {}
        self._ld_fnd_memo: Dict[Tuple[int, int], Tuple[Finding, ...]] = {}

        # Per snapshot family, the (keys, slots) layout of the last pack.
        self._layouts: Dict[SignalKind, Tuple[tuple, np.ndarray]] = {}

        self.reset()

    def reset(self) -> None:
        """Drop all epoch state (the next epoch primes from scratch)."""
        m = self._model
        self._primed = False

        # -- collect (rebound per epoch)
        self._cnt_rx = np.full(m.num_counter_slots, np.nan)
        self._cnt_tx = np.full(m.num_counter_slots, np.nan)
        self._cnt_ts = np.zeros(m.num_counter_slots)
        self._cnt_present = np.zeros(m.num_counter_slots, dtype=bool)
        self._st_oper = np.full(m.num_edges, -1, dtype=np.int8)
        self._st_present = np.zeros(m.num_edges, dtype=bool)
        self._pr = np.full(m.num_edges, -1, dtype=np.int8)
        self._nd_bit = np.full(m.num_nodes, -1, dtype=np.int8)
        self._nd_reason = np.full(m.num_nodes, -1, dtype=np.int8)
        self._ld_code = np.full(m.num_edges, -1, dtype=np.int8)
        self._dp = np.full(m.num_nodes, np.nan)
        self._counter_objs: Dict[Tuple[str, str], CollectedCounter] = {}
        self._extra_statuses: Dict[Tuple[str, str], CollectedStatus] = {}
        self._extra_probes: Dict[Tuple[str, str], object] = {}
        self._serial_links: List[int] = []
        self._collected_findings: List[Finding] = []
        self._pack_total = 0
        self._pack_recomputed = 0

        # -- harden signatures + object/finding arrays (mutated in place)
        self._TX: Optional[np.ndarray] = None
        self._RX: Optional[np.ndarray] = None
        self._edge_objs = np.empty(m.num_edges, dtype=object)
        self._edge_fnds = np.empty(m.num_edges, dtype=object)
        self._edge_has = np.zeros(m.num_edges, dtype=bool)
        self._ex_rx: Optional[np.ndarray] = None
        self._ex_tx: Optional[np.ndarray] = None
        self._ex_dp: Optional[np.ndarray] = None
        self._ex_pres: Optional[np.ndarray] = None
        self._ext_in_objs = np.empty(m.num_nodes, dtype=object)
        self._ext_out_objs = np.empty(m.num_nodes, dtype=object)
        self._drop_objs = np.empty(m.num_nodes, dtype=object)
        self._ext_fnds = np.empty(m.num_nodes, dtype=object)
        self._ext_has = np.zeros(m.num_nodes, dtype=bool)
        self._EV: Optional[np.ndarray] = None
        self._EI: Optional[np.ndarray] = None
        self._EO: Optional[np.ndarray] = None
        self._DR: Optional[np.ndarray] = None
        self._ei_rep = np.zeros(m.num_nodes, dtype=bool)
        self._eo_rep = np.zeros(m.num_nodes, dtype=bool)
        self._ls_cats = np.full(m.num_links, -1, dtype=np.int64)
        self._ls_objs = np.empty(m.num_links, dtype=object)
        self._ls_fnds = np.empty(m.num_links, dtype=object)
        self._ls_has = np.zeros(m.num_links, dtype=bool)
        self._nd_cats: Optional[np.ndarray] = None
        self._nd_objs = np.empty(m.num_nodes, dtype=object)
        self._nd_fnds = np.empty(m.num_nodes, dtype=object)
        self._nd_has = np.zeros(m.num_nodes, dtype=bool)
        self._ld_cats: Optional[np.ndarray] = None
        self._ld_objs = np.empty(m.num_links, dtype=object)
        self._ld_fnds = np.empty(m.num_links, dtype=object)
        self._ld_has = np.zeros(m.num_links, dtype=bool)

        # -- check signatures + per-entity entries (sorted orders)
        self._dem_nodes: Optional[tuple] = None
        self._dem_arr: Optional[np.ndarray] = None
        self._dem_member: Optional[np.ndarray] = None
        self._dem_pos: Optional[np.ndarray] = None
        self._dem_ei: Optional[np.ndarray] = None
        self._dem_eo: Optional[np.ndarray] = None
        self._dem_eirep: Optional[np.ndarray] = None
        self._dem_eorep: Optional[np.ndarray] = None
        self._prev_total_dropped: Optional[float] = None
        self._demand_entries = _CheckEntries(m.num_nodes)
        self._topo_bits: Optional[np.ndarray] = None
        self._topo_cats_sig: Optional[np.ndarray] = None
        self._topo_entries = _CheckEntries(m.num_links)
        self._topo_serial = False
        self._dn_bits: Optional[np.ndarray] = None
        self._dn_cats_sig: Optional[np.ndarray] = None
        self._dn_cc_sig: Optional[np.ndarray] = None
        self._dn_hf_sig: Optional[np.ndarray] = None
        self._dn_entries = _CheckEntries(m.num_nodes)
        self._dl_bits: Optional[np.ndarray] = None
        self._dl_cats_sig: Optional[np.ndarray] = None
        self._dl_entries = _CheckEntries(m.num_links)

    # ------------------------------------------------------------------

    def validate(
        self, snapshot: NetworkSnapshot, inputs: ControllerInputs
    ) -> ValidationReport:
        """Validate one epoch on the compiled arrays."""
        return self._epoch(snapshot.timestamp, inputs, lambda: self._pack(snapshot))

    def validate_events(
        self, events: Sequence[UpdateEvent], timestamp: float, inputs: ControllerInputs
    ) -> ValidationReport:
        """Validate one sealed epoch straight from its update events.

        Identical reports to :meth:`validate` on the snapshot the
        reference codec (:class:`~repro.stream.fold.EventFolder`) folds
        from the same events; an epoch whose shape :meth:`_pack_events`
        cannot prove equivalent is folded and packed the reference way.
        """

        def pack() -> None:
            if not self._pack_events(events, timestamp):
                # A throwaway folder: the fallback remembers no path.
                from repro.stream.fold import EventFolder  # deferred: stream imports core

                self._pack(EventFolder().fold(events, timestamp))

        return self._epoch(timestamp, inputs, pack)

    def _epoch(
        self, timestamp: float, inputs: ControllerInputs, pack: Callable[[], None]
    ) -> ValidationReport:
        """The three stages of one epoch; ``pack`` is the collect stage."""
        if self._tracer.enabled:
            self._tracer.instant("vector", priming=not self._primed)

        try:
            with self._stage("collect"):
                pack()
            with self._stage("harden"):
                state = self._harden()
            with self._stage("check"):
                report = ValidationReport(timestamp=timestamp, hardened=state)
                Hodor._record(report, self._check_demand(inputs, state))
                Hodor._record(report, self._check_topology(inputs, state))
                Hodor._record(report, self._check_drain(inputs, state))
        except BaseException:
            self.reset()
            raise

        self._primed = True
        return report

    @contextmanager
    def _stage(self, name: str):
        """One stage's span and wall time, with the entity counts it
        recomputed and reused across its families when tracing."""
        tracing = self._tracer.enabled
        with self._tracer.span(name, category="stage") as span:
            before = self._reuse_totals(name) if tracing else None
            start = time.perf_counter()
            yield
            self._stats.record_stage(name, time.perf_counter() - start)
            if before is not None:
                recomputed, reused = self._reuse_totals(name)
                span.annotate(recomputed=recomputed - before[0], reused=reused - before[1])

    def _reuse_totals(self, prefix: str) -> Tuple[int, ...]:
        """(recomputed, reused) totals across a stage's entity families."""
        return tuple(
            sum(count for stage, count in counts.items() if stage.startswith(prefix))
            for counts in (self._stats.entities_recomputed, self._stats.entities_reused)
        )

    # ------------------------------------------------------------------
    # Stage 1: pack (collection)
    # ------------------------------------------------------------------

    # Both packers hand ``_collect`` one ``(slots, columns, entity_at,
    # first)`` per signal family, keyed by its (first) kind, one row per
    # reported entity: ``slots[i]`` is row i's slot (-1: outside the
    # universe), ``columns`` the raw values, ``entity_at(i)`` the ``(key,
    # raw record)`` its serial unit takes, and ``first`` orders the
    # serial calls (row order when ``None``).

    def _pack(self, snapshot: NetworkSnapshot) -> None:
        """Pack every snapshot family into the dense slot arrays: one
        row per dict entry, in dict order."""

        def rows(kind: SignalKind, mapping, *attrs: str):
            keys = tuple(mapping)
            cached = self._layouts.get(kind)
            if cached is None or cached[0] != keys:  # revalidated by key tuple
                slot_map = self._model.path_index.slots[kind]
                slots = np.fromiter(
                    (slot_map.get(key, -1) for key in keys), np.int64, count=len(keys)
                )
                cached = self._layouts[kind] = (keys, slots)
            records = mapping.values()
            columns = [list(map(attrgetter(attr), records)) for attr in attrs] or [records]
            return cached[1], columns, lambda i: (keys[i], mapping[keys[i]]), None

        self._collect(
            snapshot.timestamp,
            {
                kind: rows(kind, *source)
                for kind, source in (
                    (SignalKind.RX_RATE, (snapshot.counters, "rx_rate", "tx_rate", "timestamp")),
                    (SignalKind.OPER_STATUS, (snapshot.link_status, "oper_up")),
                    (SignalKind.DRAIN, (snapshot.drains,)),
                    (SignalKind.DRAIN_REASON, (snapshot.drain_reasons,)),
                    (SignalKind.LINK_DRAIN, (snapshot.link_drains,)),
                    (SignalKind.NODE_DROPS, (snapshot.drops,)),
                    (SignalKind.PROBE, (snapshot.probes, "ok")),
                )
            },
        )

    def _pack_events(self, events: Sequence[UpdateEvent], snap_ts: float) -> bool:
        """Pack one sealed epoch straight from its update events.

        Leaves exactly what ``_pack(EventFolder().fold(events, snap_ts))``
        leaves.  The model's path index maps every path to an id;
        ``where[id]`` is the position of the event that carries it, and a
        family's rows are a gather over its id range: one row per slot
        that has an event, then one per key outside the universe.

        Returns ``False``, having packed nothing, for an epoch the
        gather cannot stand in for the fold on: an unparseable path (the
        fold raises), a path that occurs twice (the fold's last write
        wins), or a counter whose latest rate event lacks the canonical
        ``sequence/timestamp/window_s`` meta (the fold then keeps an
        older or default timestamp).
        """
        index = self._model.path_index
        try:
            ids, outside = index.resolve(events)
        except PathError:
            return False
        n = len(events)
        where = np.full(index.size + 1, -1, dtype=np.int64)  # [size]: scratch
        where[ids] = np.arange(n)
        if np.count_nonzero(where[: index.size] >= 0) + sum(map(len, outside.values())) != n:
            return False
        values = [event.value for event in events]
        values.append(None)  # values[-1]: what the fold leaves where no event wrote

        def rows(*kinds: SignalKind):
            """``key_at(i)``, slots, ``first``, and per kind the position
            of each row's event (-1 for none)."""
            keys_by_slot = index.keys[kinds[0]]
            at = np.stack([where[index.span[kind]] for kind in kinds])
            slots = np.nonzero((at >= 0).any(axis=0))[0]
            at = at[:, slots]
            inside = len(slots)
            beyond = [outside.get(kind, {}) for kind in kinds]
            more = list(dict.fromkeys(key for found in beyond for key in found))
            if more:
                slots = np.concatenate((slots, np.full(len(more), -1)))
                at = np.concatenate(
                    (at, [[found.get(key, -1) for key in more] for found in beyond]), axis=1
                )
            first = np.where(at < 0, n, at).min(axis=0)
            return (
                lambda i: keys_by_slot[slots[i]] if i < inside else more[i - inside],
                slots,
                first,
                at,
            )

        def single(kind: SignalKind, coerce=None):
            key_at, slots, first, (at,) = rows(kind)
            raw = [values[i] for i in at.tolist()]
            if coerce is not None:
                raw = list(map(coerce, raw))
            return slots, [raw], lambda i: (key_at(i), raw[i]), first

        # The fold builds ProbeResult(ok=bool(value)) before anything is
        # collected, so a value whose truth test raises does so here.
        family = {SignalKind.PROBE: single(SignalKind.PROBE, bool)}
        for kind in (
            SignalKind.DRAIN,
            SignalKind.DRAIN_REASON,
            SignalKind.LINK_DRAIN,
            SignalKind.NODE_DROPS,
        ):
            family[kind] = single(kind)

        key_at, slots, first, (at_rx, at_tx) = rows(SignalKind.RX_RATE, SignalKind.TX_RATE)
        metas = [events[i].meta for i in np.maximum(at_rx, at_tx).tolist()]
        if not all(
            len(meta) == 3 and (meta[0][0], meta[1][0], meta[2][0]) == _RATE_META
            for meta in metas
        ):
            return False
        columns = [
            [values[i] for i in at_rx.tolist()],
            [values[i] for i in at_tx.tolist()],
            [meta[1][1] for meta in metas],
        ]

        def reading_at(i):
            rx, tx, stamp = (column[i] for column in columns)
            return key_at(i), CounterReading(rx_rate=rx, tx_rate=tx, timestamp=stamp)

        family[SignalKind.RX_RATE] = (slots, columns, reading_at, first)

        status_key_at, slots, first, (at_oper, at_admin) = rows(
            SignalKind.OPER_STATUS, SignalKind.ADMIN_STATUS
        )

        oper = [values[i] for i in at_oper.tolist()]

        def status_at(i):
            report = LinkStatusReport(oper_up=oper[i])
            if at_admin[i] >= 0:
                report.admin_up = values[at_admin[i]]
            return status_key_at(i), report

        family[SignalKind.OPER_STATUS] = (slots, [oper], status_at, first)
        self._collect(snap_ts, family)
        return True

    def _collect(self, snap_ts: float, family) -> None:
        """Rows of every family -> slot arrays, exceptional-entity
        objects, collection findings and the collect reuse counts.

        Per family: the column kernels code the raw columns, the rows
        they cleared scatter into the slot arrays as they are, and the
        rest go through the family's serial unit (:meth:`_scatter`).
        """
        m = self._model
        collector = self._components.collector
        self._counter_objs = {}
        self._extra_statuses = {}
        self._extra_probes = {}
        self._collected_findings = []
        self._pack_total = 0
        self._pack_recomputed = 0

        rows = family[SignalKind.RX_RATE]
        slots = rows[0]
        rx, tx = _rate_column(rows[1][0]), _rate_column(rows[1][1])
        ts = _stamp_column(rows[1][2])
        crx = np.full(m.num_counter_slots, np.nan)
        ctx = np.full(m.num_counter_slots, np.nan)
        cts = np.zeros(m.num_counter_slots)
        cpres = np.zeros(m.num_counter_slots, dtype=bool)
        # -1.0 flags a rate the column kernel could not clear (valid rates
        # are >= 0); -inf timestamps force the stale branch, whose serial
        # unit reproduces exact serial behavior (including the TypeError a
        # non-numeric timestamp raises there).
        exceptional = (
            (rx == -1.0)  # lint: ignore[F1]
            | (tx == -1.0)  # lint: ignore[F1]
            | ((snap_ts - ts) > self._config.max_staleness_s)
            | (slots < 0)
        )

        def store_counter(key, slot, obj):
            self._counter_objs[key] = obj
            if slot >= 0:
                crx[slot], ctx[slot], cpres[slot] = _nan_if_none(obj.rx), _nan_if_none(obj.tx), True

        present = np.ones(len(slots), dtype=bool)
        self._scatter(
            rows,
            exceptional,
            ((crx, rx), (ctx, tx), (cts, ts), (cpres, present)),
            lambda key, reading: collector.collect_counter_entity(snap_ts, key, reading),
            store_counter,
        )
        self._cnt_rx, self._cnt_tx, self._cnt_ts, self._cnt_present = crx, ctx, cts, cpres

        rows = family[SignalKind.OPER_STATUS]
        codes = _tri_column(rows[1][0])
        st = np.full(m.num_edges, -1, dtype=np.int8)
        spres = np.zeros(m.num_edges, dtype=bool)

        def store_status(key, slot, obj):
            self._extra_statuses[key] = obj
            if slot >= 0:
                st[slot], spres[slot] = _bit(obj.oper_up), True

        self._scatter(
            rows,
            (codes == -2) | (rows[0] < 0),
            ((st, codes), (spres, np.ones(len(codes), dtype=bool))),
            collector.collect_status_entity,
            store_status,
        )
        self._st_oper, self._st_present = st, spres

        def values(kind, out, codes, exceptional, unit, encode):
            """A family that is one value per slot."""

            def store(_key, slot, value):
                if slot >= 0:
                    out[slot] = encode(value)

            self._scatter(family[kind], exceptional, ((out, codes),), unit, store)
            return out

        codes = _tri_column(family[SignalKind.DRAIN][1][0])
        self._nd_bit = values(
            SignalKind.DRAIN,
            np.full(m.num_nodes, -1, dtype=np.int8),
            codes,
            codes == -2,
            collector.collect_drain_entity,
            _bit,
        )
        # Drain reasons are a small family: every row goes through its
        # unit (nothing is cleared, so the mask doubles as the column).
        every = np.ones(len(family[SignalKind.DRAIN_REASON][0]), dtype=bool)
        self._nd_reason = values(
            SignalKind.DRAIN_REASON,
            np.full(m.num_nodes, -1, dtype=np.int8),
            every,
            every,
            collector.collect_drain_reason_entity,
            lambda reason: -1 if reason is None else self._reason_code[reason],
        )
        codes = _tri_column(family[SignalKind.LINK_DRAIN][1][0])
        self._ld_code = values(
            SignalKind.LINK_DRAIN,
            np.full(m.num_edges, -1, dtype=np.int8),
            codes,
            codes == -2,
            collector.collect_link_drain_entity,
            _bit,
        )
        vals = _rate_column(family[SignalKind.NODE_DROPS][1][0])
        self._dp = values(
            SignalKind.NODE_DROPS,
            np.full(m.num_nodes, np.nan),
            vals,
            vals == -1.0,  # lint: ignore[F1]
            collector.collect_drop_entity,
            _nan_if_none,
        )
        recomputed = self._pack_recomputed
        self._stats.record_reuse("collect", recomputed, self._pack_total - recomputed)

        # Probes are raw booleans: no collection unit, no findings, and
        # not part of the collect stage's entity count.  One whose .ok
        # is not a plain bool routes its link's status hardening through
        # the serial unit.
        slots, (oks,), entity_at, _first = family[SignalKind.PROBE]
        codes = _tri_column(oks)
        plain = codes >= 0
        known = plain & (slots >= 0)
        self._pr = np.full(m.num_edges, -1, dtype=np.int8)
        self._pr[slots[known]] = codes[known]
        serial_links: Set[int] = set()
        for i in np.nonzero(~plain)[0].tolist():
            self._extra_probes[entity_at(i)[0]] = oks[i]
            if slots[i] >= 0:
                serial_links.add(int(self._edge_link[slots[i]]))
        self._serial_links = sorted(serial_links)

    def _scatter(self, rows, exceptional: np.ndarray, cleared, unit, store) -> None:
        """One family's rows into its slot arrays.

        Rows outside ``exceptional`` scatter as they are (``cleared``
        pairs each slot array with its column).  The others go through
        the serial ``unit`` -- in the snapshot's dict order, which
        decides what a crashing value surfaces first -- and
        ``store(key, slot, result)`` writes what it returns; findings
        are emitted in sorted-key order, as serial collection does.
        """
        slots, _columns, entity_at, first = rows
        ok = ~exceptional & (slots >= 0)
        for out, column in cleared:
            out[slots[ok]] = column[ok]
        self._pack_total += len(slots)
        todo = np.nonzero(exceptional)[0]
        if first is not None:
            todo = todo[np.argsort(first[todo], kind="stable")]
        found: Dict[object, Tuple[Finding, ...]] = {}
        for i in todo.tolist():
            key, raw = entity_at(i)
            result, fnds = unit(key, raw)
            store(key, slots[i], result)
            if fnds:
                found[key] = fnds
        self._pack_recomputed += len(todo)
        for key in sorted(found):
            self._collected_findings.extend(found[key])

    # ------------------------------------------------------------------
    # Stage 2: hardening
    # ------------------------------------------------------------------

    def _harden(self) -> HardenedState:
        m = self._model
        cache = self._cache
        config = self._config
        primed = self._primed
        state = HardenedState()
        state.findings.extend(self._collected_findings)

        # -- R1 symmetry: paired-column comparison over all edges --------------
        E = m.num_edges
        tx = self._cnt_tx[:E]
        rx = self._cnt_rx[m.edge_rev]
        tx_nan = np.isnan(tx)
        rx_nan = np.isnan(rx)
        both = tx_nan & rx_nan
        one = tx_nan ^ rx_nan
        known2 = ~(tx_nan | rx_nan)
        mag = np.maximum(np.abs(tx), np.abs(rx))
        gaps = np.divide(
            np.abs(tx - rx),
            mag,
            out=np.zeros(E),
            where=known2 & (mag > config.rate_floor),
        )
        mismatch = known2 & (gaps > config.tau_h)
        cats = np.select([both, one, mismatch], [1, 2, 3], default=0).astype(np.int8)
        vals = (tx + rx) / 2.0

        if primed:
            moved_tx = _neq(tx, self._TX)
            moved_rx = _neq(rx, self._RX)
            if moved_tx is None and moved_rx is None:
                changed_e: List[int] = []
            else:
                mask = moved_tx if moved_tx is not None else moved_rx
                if moved_tx is not None and moved_rx is not None:
                    mask = moved_tx | moved_rx
                changed_e = np.nonzero(mask)[0].tolist()
        else:
            changed_e = list(range(E))
        for e in changed_e:
            cat = cats[e]
            if cat == 0:
                obj = HardenedValue(
                    float(vals[e]), Confidence.CORROBORATED, "avg of both ends"
                )
                fnds: Tuple[Finding, ...] = ()
            elif cat == 3:
                obj = self._hv_mismatch
                src, dst = cache.directed_edges[e]
                fnds = (
                    Finding(
                        code="R1_COUNTER_MISMATCH",
                        severity=FindingSeverity.WARNING,
                        subject=m.edge_subjects[e],
                        detail=(
                            f"tx@{src}={float(tx[e]):.6g} vs rx@{dst}={float(rx[e]):.6g} "
                            f"differ by {float(gaps[e]):.1%} (> tau_h={config.tau_h:.1%})"
                        ),
                        redundancy="R1",
                    ),
                )
            else:
                obj = self._hv_both if cat == 1 else self._hv_one
                fnds = self._edge_missing_findings(e, int(cat))
            self._edge_objs[e] = obj
            self._edge_fnds[e] = fnds
            self._edge_has[e] = bool(fnds)
        self._TX, self._RX = tx, rx
        self._stats.record_reuse("harden.flows", len(changed_e), E - len(changed_e))

        state.edge_flows = dict(zip(cache.directed_edges, self._edge_objs.tolist()))
        for e in np.nonzero(self._edge_has)[0].tolist():
            state.findings.extend(self._edge_fnds[e])

        # -- external counters and drops ---------------------------------------
        N = m.num_nodes
        ex_rx = self._cnt_rx[m.ext_slots]
        ex_tx = self._cnt_tx[m.ext_slots]
        ex_pres = self._cnt_present[m.ext_slots]
        dp = self._dp
        if primed:
            moved = None
            for pair in (
                _neq(ex_rx, self._ex_rx),
                _neq(ex_tx, self._ex_tx),
                _neq(dp, self._ex_dp),
            ):
                if pair is not None:
                    moved = pair if moved is None else (moved | pair)
            pres_moved = (
                None if ex_pres is self._ex_pres else (ex_pres != self._ex_pres)
            )
            if pres_moved is not None:
                moved = pres_moved if moved is None else (moved | pres_moved)
            changed_n = [] if moved is None else np.nonzero(moved)[0].tolist()
        else:
            changed_n = list(range(N))
        nodes = cache.nodes
        for i in changed_n:
            node = nodes[i]
            rxv = ex_rx[i]
            txv = ex_tx[i]
            dv = dp[i]
            self._ext_in_objs[i] = (
                HardenedValue(None, Confidence.UNKNOWN, f"{node}:ext rx: missing")
                if math.isnan(rxv)
                else HardenedValue(float(rxv), Confidence.REPORTED, f"{node}:ext rx")
            )
            self._ext_out_objs[i] = (
                HardenedValue(None, Confidence.UNKNOWN, f"{node}:ext tx: missing")
                if math.isnan(txv)
                else HardenedValue(float(txv), Confidence.REPORTED, f"{node}:ext tx")
            )
            self._drop_objs[i] = (
                HardenedValue(None, Confidence.UNKNOWN, f"{node} drops: missing")
                if math.isnan(dv)
                else HardenedValue(float(dv), Confidence.REPORTED, f"{node} drops")
            )
            fnds = () if ex_pres[i] else self._ext_missing_findings(i)
            self._ext_fnds[i] = fnds
            self._ext_has[i] = bool(fnds)
        self._ex_rx, self._ex_tx, self._ex_dp, self._ex_pres = ex_rx, ex_tx, dp, ex_pres
        self._stats.record_reuse("harden.external", len(changed_n), N - len(changed_n))

        state.ext_in = dict(zip(nodes, self._ext_in_objs.tolist()))
        state.ext_out = dict(zip(nodes, self._ext_out_objs.tolist()))
        state.drops = dict(zip(nodes, self._drop_objs.tolist()))
        for i in np.nonzero(self._ext_has)[0].tolist():
            state.findings.extend(self._ext_fnds[i])

        # -- R2 conservation repair: the array front end of the one solver ----
        EV_pre = np.where(cats == 0, vals, np.nan)
        EI_pre = ex_rx
        EO_pre = ex_tx
        DR_pre = dp
        unknown = (
            np.isnan(EV_pre).any()
            or np.isnan(EI_pre).any()
            or np.isnan(EO_pre).any()
            or np.isnan(DR_pre).any()
        )
        ei_rep = np.zeros(N, dtype=bool)
        eo_rep = np.zeros(N, dtype=bool)
        if config.enable_repair and unknown:
            repaired = self._repair(
                state, np.concatenate((EV_pre, EI_pre, EO_pre, DR_pre))
            )
        else:
            repaired = ()
        if repaired:
            EV = EV_pre.copy()
            EI = EI_pre.copy()
            EO = EO_pre.copy()
            DR = DR_pre.copy()
            for key in repaired:
                kind = key[0]
                if kind == "edge":
                    edge = (key[1], key[2])
                    EV[m.edge_index[edge]] = state.edge_flows[edge].value
                elif kind == "ext_in":
                    i = m.node_slot[key[1]]
                    EI[i] = state.ext_in[key[1]].value
                    ei_rep[i] = True
                elif kind == "ext_out":
                    i = m.node_slot[key[1]]
                    EO[i] = state.ext_out[key[1]].value
                    eo_rep[i] = True
                elif kind == "drop":
                    DR[m.node_slot[key[1]]] = state.drops[key[1]].value
        else:
            EV, EI, EO, DR = EV_pre, EI_pre, EO_pre, DR_pre
        self._EV, self._EI, self._EO, self._DR = EV, EI, EO, DR
        self._ei_rep, self._eo_rep = ei_rep, eo_rep

        self._harden_link_status(state)
        self._harden_node_drains(state)
        self._harden_link_drains(state)
        return state

    def _repair(self, state: HardenedState, values: np.ndarray) -> Tuple[Tuple[str, ...], ...]:
        """R2 on the flat ``[edges | ext_in | ext_out | drops]`` values
        (NaN = unknown): the conservation system's array front end, then
        the hardener's ``apply_repairs`` -- the writer the python path
        uses too -- inside a ``repair`` span nested in ``harden``."""
        tracer = self._tracer
        solver = self._solver_cache
        hits, misses = solver.hits, solver.misses
        with tracer.span("repair") as span:
            result = self._cache.conservation.solve_array(values, cache=solver)
            repaired = self._components.hardener.apply_repairs(
                _CollectedView(self), state, result
            )
            solves = solver.misses - misses
            reuses = solver.hits - hits
            if tracer.enabled:
                tracer.instant("repair_gate", unknown_vars=result.num_unknowns)
                span.annotate(
                    unknowns=result.num_unknowns,
                    components=solves + reuses,
                    solves=solves,
                    reuses=reuses,
                    repaired=len(repaired),
                )
        self._stats.repair_solves += solves
        self._stats.repair_reuses += reuses
        return repaired

    def _edge_missing_findings(self, e: int, cat: int) -> Tuple[Finding, ...]:
        key = (e, cat)
        fnds = self._edge_fnd_memo.get(key)
        if fnds is None:
            if cat == 1:
                code, detail = "R1_BOTH_MISSING", "no measurement from either end"
            else:
                code, detail = "R1_ONE_MISSING", "only one end reported; flagged for repair"
            fnds = (
                Finding(
                    code=code,
                    severity=FindingSeverity.WARNING,
                    subject=self._model.edge_subjects[e],
                    detail=detail,
                    redundancy="R1",
                ),
            )
            self._edge_fnd_memo[key] = fnds
        return fnds

    def _ext_missing_findings(self, i: int) -> Tuple[Finding, ...]:
        fnds = self._ext_fnd_memo.get(i)
        if fnds is None:
            fnds = (
                Finding(
                    code="MISSING_EXTERNAL_COUNTERS",
                    severity=FindingSeverity.WARNING,
                    subject=self._cache.nodes[i],
                    detail="no external interface reading; left unknown",
                ),
            )
            self._ext_fnd_memo[i] = fnds
        return fnds

    # -- link status --------------------------------------------------------

    def _harden_link_status(self, state: HardenedState) -> None:
        m = self._model
        config = self._config
        L = m.num_links
        sa = self._st_oper[m.link_ab]
        sb = self._st_oper[m.link_ba]
        both_missing = (sa == -1) & (sb == -1)
        conflict = (sa >= 0) & (sb >= 0) & (sa != sb)
        up = ~both_missing & (sa != 0) & (sb != 0)
        scode = np.select([both_missing, conflict, up], [3, 2, 0], default=1)

        if config.use_counters_for_status:
            r1 = self._cnt_rx[m.link_ab]
            r2 = self._cnt_tx[m.link_ab]
            r3 = self._cnt_rx[m.link_ba]
            r4 = self._cnt_tx[m.link_ba]
            known_any = ~(
                np.isnan(r1) & np.isnan(r2) & np.isnan(r3) & np.isnan(r4)
            )
            thr = config.active_threshold
            act = (r1 > thr) | (r2 > thr) | (r3 > thr) | (r4 > thr)
            acode = np.where(known_any, np.where(act, 1, 0), 2)
        else:
            acode = np.full(L, 2, dtype=np.int64)

        if config.use_probes:
            pa = self._pr[m.link_ab]
            pb = self._pr[m.link_ba]
            has = (pa >= 0) | (pb >= 0)
            fail = (pa == 0) | (pb == 0)
            pcode = np.where(has, np.where(fail, 1, 0), 2)
        else:
            pcode = np.full(L, 2, dtype=np.int64)

        cats = scode * 9 + acode * 3 + pcode
        serial = self._serial_links
        if serial:
            cats[serial] = -1

        prev = self._ls_cats
        if self._primed:
            moved = (cats != prev) | (cats == -1) | (prev == -1)
            changed = np.nonzero(moved)[0].tolist()
        else:
            changed = list(range(L))
        view: Optional[_CollectedView] = None
        hardener = self._components.hardener
        for li in changed:
            cat = int(cats[li])
            if cat < 0:
                if view is None:
                    view = _CollectedView(self)
                obj, fnds = hardener.harden_link_status_entity(
                    view, self._cache.links[li]
                )
            else:
                obj = self._ls_object(cat)
                fnds = self._ls_findings(li, cat, obj)
            self._ls_objs[li] = obj
            self._ls_fnds[li] = fnds
            self._ls_has[li] = bool(fnds)
        self._ls_cats = cats
        self._stats.record_reuse("harden.links", len(changed), L - len(changed))

        state.links = dict(zip(m.link_names, self._ls_objs.tolist()))
        for li in np.nonzero(self._ls_has)[0].tolist():
            state.findings.extend(self._ls_fnds[li])

    def _ls_object(self, cat: int):
        obj = self._ls_intern.get(cat)
        if obj is None:
            scode, rem = divmod(cat, 9)
            acode, pcode = divmod(rem, 3)
            obj = combine_codes(
                _STATUS_STRS[scode],
                _ACTIVE_VALS[acode],
                _PROBE_STRS[pcode],
                self._config,
            )
            self._ls_intern[cat] = obj
            self._ls_usable[cat] = obj.usable
        return obj

    def _ls_findings(self, li: int, cat: int, obj) -> Tuple[Finding, ...]:
        key = (li, cat)
        fnds = self._ls_fnd_memo.get(key)
        if fnds is None:
            name = self._model.link_names[li]
            out: List[Finding] = []
            if cat // 9 == 2:
                out.append(
                    Finding(
                        code="R1_STATUS_MISMATCH",
                        severity=FindingSeverity.WARNING,
                        subject=name,
                        detail="endpoints disagree on oper-status",
                        redundancy="R1",
                    )
                )
            if obj.verdict == LinkVerdict.SUSPECT:
                out.append(
                    Finding(
                        code="LINK_SUSPECT",
                        severity=FindingSeverity.WARNING,
                        subject=name,
                        detail=f"evidence unresolved: {', '.join(obj.evidence)}",
                        redundancy="R3",
                    )
                )
            if obj.verdict == LinkVerdict.UP and obj.forwarding is False:
                out.append(
                    Finding(
                        code="SEMANTIC_LINK_FAILURE",
                        severity=FindingSeverity.CRITICAL,
                        subject=name,
                        detail="status up but dataplane does not forward",
                        redundancy="R4",
                    )
                )
            fnds = tuple(out)
            self._ls_fnd_memo[key] = fnds
        return fnds

    # -- node drains --------------------------------------------------------

    def _harden_node_drains(self, state: HardenedState) -> None:
        m = self._model
        config = self._config
        N = m.num_nodes
        EV, EI, EO = self._EV, self._EI, self._EO
        thr = config.active_threshold
        known_counts = (
            m.edge_incidence_abs.dot((~np.isnan(EV)).astype(np.float64))
            + ~np.isnan(EI)
            + ~np.isnan(EO)
        )
        active_counts = (
            m.edge_incidence_abs.dot((EV > thr).astype(np.float64))
            + (EI > thr)
            + (EO > thr)
        )
        # Counts are exact small integers, so == 0 is an exact emptiness
        # test, not a float tolerance decision.
        k = np.where(
            known_counts == 0,
            -1,
            (active_counts > 0).astype(np.int64),
        )
        cats = ((self._nd_bit.astype(np.int64) + 1) * 5 + (self._nd_reason + 1)) * 3 + (
            k + 1
        )

        prev = self._nd_cats
        if self._primed and prev is not None:
            changed = np.nonzero(cats != prev)[0].tolist()
        else:
            changed = list(range(N))
        nodes = self._cache.nodes
        for i in changed:
            cat = int(cats[i])
            self._nd_objs[i] = self._nd_object(cat)
            fnds = self._nd_findings(i, cat)
            self._nd_fnds[i] = fnds
            self._nd_has[i] = bool(fnds)
        self._nd_cats = cats
        self._stats.record_reuse("harden.drains", len(changed), N - len(changed))

        for i in np.nonzero(self._nd_has)[0].tolist():
            state.findings.extend(self._nd_fnds[i])
        state.node_drains = dict(zip(nodes, self._nd_objs.tolist()))

    @staticmethod
    def _nd_decode(cat: int) -> Tuple[int, int, int]:
        """(drain bit, reason code, carrying code), each ``-1`` unknown."""
        k = cat % 3 - 1
        rest = cat // 3
        rc = rest % 5 - 1
        dr = rest // 5 - 1
        return dr, rc, k

    def _nd_object(self, cat: int) -> HardenedDrain:
        obj = self._nd_intern.get(cat)
        if obj is None:
            dr, rc, k = self._nd_decode(cat)
            reason = None if rc < 0 else tuple(DrainReason)[rc]
            carrying = None if k < 0 else bool(k)
            if dr < 0:
                verdict = DrainVerdict.CONFLICTED
            elif dr == 1:
                verdict = DrainVerdict.DRAINED
            else:
                verdict = DrainVerdict.SERVING
            evidence: List[str] = []
            if carrying is not None:
                evidence.append("traffic:active" if carrying else "traffic:idle")
            if reason is not None:
                evidence.append(f"reason:{reason.value}")
            obj = HardenedDrain(
                verdict=verdict,
                carrying_traffic=carrying,
                reason=reason,
                evidence=tuple(evidence),
            )
            self._nd_intern[cat] = obj
        return obj

    def _nd_findings(self, i: int, cat: int) -> Tuple[Finding, ...]:
        key = (i, cat)
        fnds = self._nd_fnd_memo.get(key)
        if fnds is None:
            dr, rc, k = self._nd_decode(cat)
            node = self._cache.nodes[i]
            if dr < 0:
                fnds = (
                    Finding(
                        code="DRAIN_MISSING",
                        severity=FindingSeverity.WARNING,
                        subject=node,
                        detail="no usable drain report",
                    ),
                )
            elif dr == 1 and k == 1:
                reason = None if rc < 0 else tuple(DrainReason)[rc]
                fnds = (
                    self._components.hardener._drained_but_carrying_finding(
                        node, reason
                    ),
                )
            else:
                fnds = ()
            self._nd_fnd_memo[key] = fnds
        return fnds

    # -- link drains --------------------------------------------------------

    def _harden_link_drains(self, state: HardenedState) -> None:
        m = self._model
        L = m.num_links
        ba = self._ld_code[m.link_ab].astype(np.int64)
        bb = self._ld_code[m.link_ba].astype(np.int64)
        cats = (ba + 1) * 3 + (bb + 1)

        prev = self._ld_cats
        if self._primed and prev is not None:
            changed = np.nonzero(cats != prev)[0].tolist()
        else:
            changed = list(range(L))
        for li in changed:
            cat = int(cats[li])
            self._ld_objs[li] = self._ld_object(cat)
            fnds = self._ld_findings(li, cat)
            self._ld_fnds[li] = fnds
            self._ld_has[li] = bool(fnds)
        self._ld_cats = cats
        self._stats.record_reuse("harden.drains", len(changed), L - len(changed))

        for li in np.nonzero(self._ld_has)[0].tolist():
            state.findings.extend(self._ld_fnds[li])
        state.link_drains = dict(zip(m.link_names, self._ld_objs.tolist()))

    @staticmethod
    def _ld_verdict(cat: int) -> DrainVerdict:
        bits = [_TRI[cat // 3], _TRI[cat % 3]]
        known = [bit for bit in bits if bit is not None]
        if known and all(known) and len(known) == 2:
            return DrainVerdict.DRAINED
        if known and not any(known):
            return DrainVerdict.SERVING
        return DrainVerdict.CONFLICTED

    def _ld_object(self, cat: int) -> HardenedDrain:
        obj = self._ld_intern.get(cat)
        if obj is None:
            obj = HardenedDrain(verdict=self._ld_verdict(cat))
            self._ld_intern[cat] = obj
        return obj

    def _ld_findings(self, li: int, cat: int) -> Tuple[Finding, ...]:
        key = (li, cat)
        fnds = self._ld_fnd_memo.get(key)
        if fnds is None:
            if self._ld_verdict(cat) == DrainVerdict.CONFLICTED:
                bits = [_TRI[cat // 3], _TRI[cat % 3]]
                fnds = (
                    Finding(
                        code="R1_DRAIN_MISMATCH",
                        severity=FindingSeverity.WARNING,
                        subject=self._model.link_names[li],
                        detail=f"link-drain bits disagree across endpoints: {bits}",
                        redundancy="R1",
                    ),
                )
            else:
                fnds = ()
            self._ld_fnd_memo[key] = fnds
        return fnds

    # ------------------------------------------------------------------
    # Stage 3: dynamic checks
    # ------------------------------------------------------------------

    def _check_demand(self, inputs: ControllerInputs, state: HardenedState):
        m = self._model
        cache = self._cache
        checker = self._components.demand
        N = m.num_nodes
        total_dropped = DemandChecker.total_dropped(state)
        demand = inputs.demand
        dnodes = demand.nodes
        arr = demand.to_array()

        ei_s = self._EI[m.sorted_node_idx]
        eo_s = self._EO[m.sorted_node_idx]
        eirep_s = self._ei_rep[m.sorted_node_idx]
        eorep_s = self._eo_rep[m.sorted_node_idx]

        all_dirty = (
            not self._primed
            or self._dem_nodes != dnodes
            or self._dem_arr is None
            or self._dem_arr.shape != arr.shape
            or self._prev_total_dropped is None
            # Exact identity is the reuse guard's contract (the drop
            # total widens every egress tolerance).
            or total_dropped != self._prev_total_dropped  # lint: ignore[F1]
        )
        if all_dirty:
            index = {node: i for i, node in enumerate(dnodes)}
            self._dem_member = np.fromiter(
                (node in index for node in cache.sorted_nodes), bool, count=N
            )
            self._dem_pos = np.fromiter(
                (index.get(node, 0) for node in cache.sorted_nodes),
                np.int64,
                count=N,
            )
            dirty_idx = list(range(N))
        else:
            data_moved = _neq(arr, self._dem_arr)
            mask = np.zeros(N, dtype=bool)
            if data_moved is not None and data_moved.any():
                rows_ch = data_moved.any(axis=1)
                cols_ch = data_moved.any(axis=0)
                mask |= self._dem_member & (
                    rows_ch[self._dem_pos] | cols_ch[self._dem_pos]
                )
            for pair in (_neq(ei_s, self._dem_ei), _neq(eo_s, self._dem_eo)):
                if pair is not None:
                    mask |= pair
            mask |= eirep_s != self._dem_eirep
            mask |= eorep_s != self._dem_eorep
            dirty_idx = np.nonzero(mask)[0].tolist()

        sorted_nodes = cache.sorted_nodes
        for i in dirty_idx:
            self._demand_entries.store(
                i, *checker.check_node_entity(demand, state, sorted_nodes[i], total_dropped)
            )
        self._stats.record_reuse("check.demand", len(dirty_idx), N - len(dirty_idx))

        self._dem_nodes = dnodes
        self._dem_arr = arr
        self._dem_ei, self._dem_eo = ei_s, eo_s
        self._dem_eirep, self._dem_eorep = eirep_s, eorep_s
        self._prev_total_dropped = total_dropped

        floor = max(self._config.rate_floor, self._config.active_threshold)
        result = _check_result(
            "demand",
            self._demand_entries,
            notes=(DemandChecker.dropped_note(total_dropped),) if total_dropped > floor else (),
        )
        skipped = result.num_skipped
        if skipped:
            result.notes.append(DemandChecker.skipped_note(skipped))
        return result

    def _check_topology(self, inputs: ControllerInputs, state: HardenedState):
        m = self._model
        cache = self._cache
        checker = self._components.topology
        believed = frozenset(inputs.topology.link_names())

        if not believed <= self._link_name_set:
            # Believed links outside the hardened universe: the key
            # universe no longer matches the compiled link order, so run
            # the whole serial check (rare -- a topology/cache mismatch
            # is itself a finding-worthy condition the checker handles).
            self._topo_serial = True
            universe = set(state.links) | believed
            self._stats.record_reuse("check.topology", len(universe), 0)
            return checker.check(inputs.topology, state)

        L = m.num_links
        bits = np.fromiter(map(believed.__contains__, cache.sorted_link_names), bool, count=L)
        cats_s = self._ls_cats[m.sorted_link_idx]
        if self._primed and not self._topo_serial and self._topo_bits is not None:
            moved = (
                (bits != self._topo_bits)
                | (cats_s != self._topo_cats_sig)
                | (cats_s == -1)
                | (self._topo_cats_sig == -1)
            )
            dirty_idx = np.nonzero(moved)[0].tolist()
        else:
            dirty_idx = list(range(L))
        sorted_names = cache.sorted_link_names
        for i in dirty_idx:
            name = sorted_names[i]
            self._topo_entries.store(
                i, *checker.check_link_entity(name, bool(bits[i]), state.links.get(name))
            )
        self._stats.record_reuse("check.topology", len(dirty_idx), L - len(dirty_idx))
        self._topo_bits = bits
        self._topo_cats_sig = cats_s
        self._topo_serial = False

        return _check_result("topology", self._topo_entries)

    def _check_drain(self, inputs: ControllerInputs, state: HardenedState):
        m = self._model
        cache = self._cache
        checker = self._components.drain
        N, L = m.num_nodes, m.num_links

        # A bool column takes each answer by its truth value.
        drains = inputs.drains
        node_bits = np.fromiter(map(drains.is_node_drained, cache.sorted_nodes), bool, count=N)
        link_bits = np.fromiter(
            map(drains.is_link_drained, cache.sorted_link_names), bool, count=L
        )

        usable = np.zeros(L, dtype=bool)
        normal = self._ls_cats >= 0
        usable[normal] = self._ls_usable[self._ls_cats[normal]]
        for li in np.nonzero(~normal)[0].tolist():
            usable[li] = state.links[m.link_names[li]].usable
        usable_counts = m.link_incidence_abs.dot(usable.astype(np.float64))
        # node_degree and usable_counts are exact small integers.
        can_carry = (m.node_degree == 0) | (usable_counts > 0)
        has_faulty = (m.node_degree - usable_counts) > 0

        nc_s = self._nd_cats[m.sorted_node_idx]
        cc_s = can_carry[m.sorted_node_idx]
        hf_s = has_faulty[m.sorted_node_idx]
        lc_s = self._ld_cats[m.sorted_link_idx]

        if self._primed and self._dn_bits is not None:
            node_moved = (
                (node_bits != self._dn_bits)
                | (nc_s != self._dn_cats_sig)
                | (cc_s != self._dn_cc_sig)
                | (hf_s != self._dn_hf_sig)
            )
            link_moved = (link_bits != self._dl_bits) | (lc_s != self._dl_cats_sig)
            dirty_nodes = np.nonzero(node_moved)[0].tolist()
            dirty_links = np.nonzero(link_moved)[0].tolist()
        else:
            dirty_nodes = list(range(N))
            dirty_links = list(range(L))

        for i in dirty_nodes:
            self._dn_entries.store(
                i,
                *checker.check_node_entity(
                    inputs.drains, state, cache.node_links, cache.sorted_nodes[i]
                ),
            )
        for i in dirty_links:
            self._dl_entries.store(
                i, checker.check_link_entity(inputs.drains, state, cache.sorted_link_names[i])
            )
        recomputed = len(dirty_nodes) + len(dirty_links)
        self._stats.record_reuse("check.drain", recomputed, N + L - recomputed)

        self._dn_bits, self._dl_bits = node_bits, link_bits
        self._dn_cats_sig, self._dn_cc_sig, self._dn_hf_sig = nc_s, cc_s, hf_s
        self._dl_cats_sig = lc_s

        return _check_result("drain", self._dn_entries, self._dl_entries)

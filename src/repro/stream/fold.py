"""Cached-decode event folding: sealed events -> snapshot, no re-parse.

The assembler's classic seal path re-parses every delivery's gNMI path
string (:meth:`~repro.telemetry.paths.SignalPath.parse` -- a regex
match) before applying it to the under-construction snapshot; at WAN
scale that per-event parse dominates the "snapshot reassembly" cost the
ROADMAP names.  Path strings are drawn from a per-topology vocabulary
that is stable across epochs, so :class:`EventFolder` decodes each
distinct path **once**, memoizes a pre-bound applier closure, and
thereafter folds events with a single dict lookup per delivery.

Folding is the *same* codec as
:func:`repro.stream.events.apply_update` -- identical merge semantics
for counter and status halves, identical raw-value passthrough
(malformed junk rides the wire untouched), identical dataclass
defaults -- so a folded snapshot is signal-for-signal identical to an
applied one.  The scatter differential in
``tests/stream/test_scatter_differential.py`` holds the two paths to
byte-identical validation reports and provenance across every engine
mode/backend combination.

This is the reference codec of the ``build_snapshots=False`` seal
path: sealed epochs carry their sorted event buffers instead of
pre-applied snapshots, and on the python backend
:meth:`~repro.engine.ValidationEngine.validate_events` folds them
through this cache.  The vector backend packs the same events straight
into its slot arrays (``VectorValidator.validate_events``) and is held
to this fold's result, falling back to it for shapes it cannot prove.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

from repro.stream.events import UpdateEvent
from repro.telemetry.counters import CounterReading
from repro.telemetry.paths import SignalKind, SignalPath
from repro.telemetry.snapshot import LinkStatusReport, NetworkSnapshot, ProbeResult

__all__ = ["EventFolder"]

#: An applier takes (snapshot, value, meta) and writes one decoded
#: update into the snapshot -- the path is pre-bound at compile time.
_Applier = Callable[[NetworkSnapshot, object, Tuple[Tuple[str, object], ...]], None]


def _compile(path: str) -> _Applier:
    """Decode one path and return its pre-bound applier closure.

    Each closure replicates exactly one branch of
    :func:`repro.stream.events.apply_update`, with the parsed
    ``(kind, node, peer)`` captured so replaying an update costs no
    string work.  Meta pairs are scanned last-wins, matching the
    ``dict(meta)`` semantics of the reference codec.
    """
    parsed = SignalPath.parse(path)
    kind = parsed.kind
    node, peer = parsed.node, parsed.peer

    if kind in (SignalKind.RX_RATE, SignalKind.TX_RATE):
        key = (node, peer or "")
        is_rx = kind is SignalKind.RX_RATE

        def fold_rate(snapshot, value, meta):
            reading = snapshot.counters.get(key)
            if reading is None:
                reading = CounterReading(rx_rate=None, tx_rate=None)
                snapshot.counters[key] = reading
            if is_rx:
                reading.rx_rate = value
            else:
                reading.tx_rate = value
            for name, raw in meta:
                if name == "sequence":
                    reading.sequence = raw
                elif name == "timestamp":
                    reading.timestamp = raw
                elif name == "window_s":
                    reading.window_s = raw

        return fold_rate

    if kind in (SignalKind.OPER_STATUS, SignalKind.ADMIN_STATUS):
        key = (node, peer or "")
        is_oper = kind is SignalKind.OPER_STATUS

        def fold_status(snapshot, value, _meta):
            status = snapshot.link_status.get(key)
            if status is None:
                status = LinkStatusReport(oper_up=None)
                snapshot.link_status[key] = status
            if is_oper:
                status.oper_up = value
            else:
                status.admin_up = value

        return fold_status

    if kind is SignalKind.DRAIN:

        def fold_drain(snapshot, value, _meta):
            snapshot.drains[node] = value

        return fold_drain

    if kind is SignalKind.DRAIN_REASON:

        def fold_reason(snapshot, value, _meta):
            snapshot.drain_reasons[node] = value

        return fold_reason

    if kind is SignalKind.LINK_DRAIN:
        key = (node, peer or "")

        def fold_link_drain(snapshot, value, _meta):
            snapshot.link_drains[key] = value

        return fold_link_drain

    if kind is SignalKind.NODE_DROPS:

        def fold_drops(snapshot, value, _meta):
            snapshot.drops[node] = value

        return fold_drops

    if kind is SignalKind.PROBE:
        key = (node, peer or "")

        def fold_probe(snapshot, value, meta):
            rtt = None
            for name, raw in meta:
                if name == "rtt_ms":
                    rtt = raw
            snapshot.probes[key] = ProbeResult(ok=bool(value), rtt_ms=rtt)

        return fold_probe

    raise ValueError(f"unsupported signal kind {kind!r}")  # pragma: no cover


class EventFolder:
    """Folds sealed update events into snapshots through a decode cache.

    The cache maps path strings to compiled appliers and is *never*
    invalidated: a path's decode is a pure function of the string, so a
    cached entry stays correct across epochs, topologies, and tenants.
    One folder per engine amortizes the whole vocabulary after the
    first epoch.
    """

    def __init__(self) -> None:
        self._appliers: Dict[str, _Applier] = {}

    @property
    def cached_paths(self) -> int:
        """Distinct paths decoded so far (observability only)."""
        return len(self._appliers)

    def fold(self, events: Iterable[UpdateEvent], timestamp: float) -> NetworkSnapshot:
        """Fold one sealed epoch's events into a fresh snapshot.

        Events must arrive in the assembler's sorted ``(router, uid)``
        seal order so the last-write-wins merge matches the reference
        apply path key for key.
        """
        snapshot = NetworkSnapshot(timestamp=timestamp)
        appliers = self._appliers
        for event in events:
            applier = appliers.get(event.path)
            if applier is None:
                applier = appliers[event.path] = _compile(event.path)
            applier(snapshot, event.value, event.meta)
        return snapshot

"""Hodor step 1: collecting input signals.

Turns a raw :class:`~repro.telemetry.snapshot.NetworkSnapshot` into a
typed :class:`~repro.core.signals.CollectedState`.  The relevant
signals were "chosen once at system design time" (Section 3.2) -- here,
that design-time choice is the set of
:class:`~repro.telemetry.paths.SignalKind` families this collector
reads.

Collection is deliberately defensive but lossless in intent: a value
that cannot be interpreted (malformed type, unparseable string,
negative rate) becomes ``None`` *plus a finding*, never an exception --
production telemetry bugs must degrade Hodor's knowledge, not crash it.
Stale readings (delayed-telemetry bugs) are likewise dropped with a
finding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import HodorConfig
from repro.core.drain_reasons import parse_reason
from repro.core.signals import (
    CollectedCounter,
    CollectedState,
    CollectedStatus,
    Finding,
    FindingSeverity,
)
from repro.telemetry.counters import MalformedValueError, coerce_rate
from repro.telemetry.snapshot import NetworkSnapshot

__all__ = ["SignalCollector"]


def _coerce_bool(raw: object) -> Optional[bool]:
    """Interpret a raw boolean-ish telemetry value, or None if hopeless."""
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        lowered = raw.strip().lower()
        if lowered in ("up", "true", "1", "drained"):
            return True
        if lowered in ("down", "false", "0", "undrained"):
            return False
        return None
    if isinstance(raw, (int, float)) and raw in (0, 1):
        return bool(raw)
    return None


class SignalCollector:
    """Hodor's collection step.

    Args:
        config: Pipeline configuration (staleness bound is used here).
    """

    def __init__(self, config: Optional[HodorConfig] = None) -> None:
        self._config = config or HodorConfig()

    def collect(self, snapshot: NetworkSnapshot) -> CollectedState:
        """Coerce every signal in the snapshot into typed form."""
        state = CollectedState(timestamp=snapshot.timestamp)
        self._collect_counters(snapshot, state)
        self._collect_statuses(snapshot, state)
        self._collect_drains(snapshot, state)
        self._collect_drops(snapshot, state)
        state.probes = {key: result.ok for key, result in snapshot.probes.items()}
        return state

    # ------------------------------------------------------------------

    def _collect_counters(self, snapshot: NetworkSnapshot, state: CollectedState) -> None:
        counters, findings = self.collect_counter_slice(snapshot, sorted(snapshot.counters))
        state.counters.update(counters)
        state.findings.extend(findings)

    def collect_counter_slice(
        self, snapshot: NetworkSnapshot, keys: Sequence[Tuple[str, str]]
    ) -> Tuple[Dict[Tuple[str, str], CollectedCounter], List[Finding]]:
        """Counter coercion over one contiguous slice of counter keys.

        The slice worker behind :meth:`collect`, which calls it once
        with every (sorted) key.
        """
        counters: Dict[Tuple[str, str], CollectedCounter] = {}
        findings: List[Finding] = []
        for key in keys:
            counter, counter_findings = self.collect_counter_entity(
                snapshot.timestamp, key, snapshot.counters[key]
            )
            counters[key] = counter
            findings.extend(counter_findings)
        return counters, findings

    def collect_counter_entity(
        self,
        snapshot_timestamp: float,
        key: Tuple[str, str],
        reading,
    ) -> Tuple[CollectedCounter, Tuple[Finding, ...]]:
        """Coerce one interface's counter reading (pure per-entity unit).

        Depends only on the snapshot timestamp and this one reading, so
        the vector backend reuses its output verbatim whenever the
        reading did not change.
        """
        subject = f"{key[0]}->{key[1]}"
        if snapshot_timestamp - reading.timestamp > self._config.max_staleness_s:
            finding = Finding(
                code="STALE_READING",
                severity=FindingSeverity.WARNING,
                subject=subject,
                detail=(
                    f"reading is {snapshot_timestamp - reading.timestamp:.0f}s "
                    "old; treated as missing"
                ),
            )
            return (
                CollectedCounter(rx=None, tx=None, timestamp=reading.timestamp),
                (finding,),
            )

        findings: List[Finding] = []
        rx = self._coerce_counter(reading.rx_rate, subject, "rx", findings)
        tx = self._coerce_counter(reading.tx_rate, subject, "tx", findings)
        return (
            CollectedCounter(rx=rx, tx=tx, timestamp=reading.timestamp),
            tuple(findings),
        )

    def _coerce_counter(
        self, raw: object, subject: str, side: str, findings: List[Finding]
    ) -> Optional[float]:
        try:
            return coerce_rate(raw)  # type: ignore[arg-type]
        except MalformedValueError as exc:
            findings.append(
                Finding(
                    code="MALFORMED_COUNTER",
                    severity=FindingSeverity.WARNING,
                    subject=subject,
                    detail=f"{side} counter malformed: {exc}",
                )
            )
            return None

    def _collect_statuses(self, snapshot: NetworkSnapshot, state: CollectedState) -> None:
        for key in sorted(snapshot.link_status):
            status, findings = self.collect_status_entity(key, snapshot.link_status[key])
            state.statuses[key] = status
            state.findings.extend(findings)

    def collect_status_entity(
        self, key: Tuple[str, str], report
    ) -> Tuple[CollectedStatus, Tuple[Finding, ...]]:
        """Coerce one interface's status report (pure per-entity unit)."""
        subject = f"{key[0]}->{key[1]}"
        oper = _coerce_bool(report.oper_up)
        admin = _coerce_bool(report.admin_up)
        findings: Tuple[Finding, ...] = ()
        if oper is None and report.oper_up is not None:
            findings = (
                Finding(
                    code="MALFORMED_STATUS",
                    severity=FindingSeverity.WARNING,
                    subject=subject,
                    detail=f"uninterpretable oper-status {report.oper_up!r}",
                ),
            )
        return CollectedStatus(oper_up=oper, admin_up=admin), findings

    def _collect_drains(self, snapshot: NetworkSnapshot, state: CollectedState) -> None:
        for node in sorted(snapshot.drains):
            value, findings = self.collect_drain_entity(node, snapshot.drains[node])
            state.drains[node] = value
            state.findings.extend(findings)
        for node in sorted(snapshot.drain_reasons):
            reason, findings = self.collect_drain_reason_entity(
                node, snapshot.drain_reasons[node]
            )
            state.drain_reasons[node] = reason
            state.findings.extend(findings)
        for key in sorted(snapshot.link_drains):
            value, findings = self.collect_link_drain_entity(
                key, snapshot.link_drains[key]
            )
            state.link_drains[key] = value
            state.findings.extend(findings)

    def collect_drain_entity(
        self, node: str, raw: object
    ) -> Tuple[Optional[bool], Tuple[Finding, ...]]:
        """Coerce one router's drain bit (pure per-entity unit)."""
        value = _coerce_bool(raw)
        if value is None and raw is not None:
            return value, (
                Finding(
                    code="MALFORMED_DRAIN",
                    severity=FindingSeverity.WARNING,
                    subject=node,
                    detail=f"uninterpretable drain bit {raw!r}",
                ),
            )
        return value, ()

    def collect_drain_reason_entity(
        self, node: str, raw: object
    ) -> Tuple[object, Tuple[Finding, ...]]:
        """Coerce one router's drain reason (pure per-entity unit)."""
        reason = parse_reason(raw)
        if reason is None:
            return reason, (
                Finding(
                    code="MALFORMED_DRAIN_REASON",
                    severity=FindingSeverity.WARNING,
                    subject=node,
                    detail=f"uninterpretable drain reason {raw!r}",
                ),
            )
        return reason, ()

    def collect_link_drain_entity(
        self, _key: Tuple[str, str], raw: object
    ) -> Tuple[Optional[bool], Tuple[Finding, ...]]:
        """Coerce one interface's link-drain bit (pure per-entity unit)."""
        return _coerce_bool(raw), ()

    def _collect_drops(self, snapshot: NetworkSnapshot, state: CollectedState) -> None:
        for node in sorted(snapshot.drops):
            value, findings = self.collect_drop_entity(node, snapshot.drops[node])
            state.drops[node] = value
            state.findings.extend(findings)

    def collect_drop_entity(
        self, node: str, raw: object
    ) -> Tuple[Optional[float], Tuple[Finding, ...]]:
        """Coerce one router's drop counter (pure per-entity unit)."""
        try:
            return coerce_rate(raw), ()  # type: ignore[arg-type]
        except MalformedValueError as exc:
            return None, (
                Finding(
                    code="MALFORMED_DROPS",
                    severity=FindingSeverity.WARNING,
                    subject=node,
                    detail=f"drop counter malformed: {exc}",
                ),
            )

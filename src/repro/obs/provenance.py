"""Verdict provenance: *why* a controller input was flagged.

A :class:`VerdictProvenance` record accompanies each per-input verdict
in a :class:`~repro.core.report.ValidationReport`.  For every violated
invariant it names the invariant (``demand/row-sum/<node>``,
``topology/live-iff-up/<link>``, ``drain/node-consistent/<node>``,
...), resolves the hardened signals that fed the comparison, and
classifies each signal's disposition -- ``raw`` (single vantage
point), ``confirmed`` (independent vantage points agreed, R1),
``repaired`` (recovered via conservation/alternative signals, R2/R3),
or ``unknown`` -- together with its confidence level and provenance
source string.  It also lists which paper redundancies (R1..R4) the
hardening findings implicated for the same entities, closing the loop
from verdict back to raw telemetry.

Provenance derives deterministically from the
(:class:`~repro.core.invariants.CheckResult`,
:class:`~repro.core.signals.HardenedState`) pair, so the engine's
differential harness needs no changes: identical reports imply
identical provenance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

from repro.core.invariants import CheckResult
from repro.core.signals import (
    Confidence,
    Finding,
    HardenedDrain,
    HardenedLinkStatus,
    HardenedState,
    HardenedValue,
)

__all__ = [
    "SignalProvenance",
    "FiredInvariant",
    "VerdictProvenance",
    "build_provenance",
]

#: Confidence level -> signal disposition, per the paper's redundancy
#: ladder (corroborated beats repaired beats single-source).
DISPOSITIONS = MappingProxyType(
    {
        Confidence.CORROBORATED: "confirmed",
        Confidence.REPAIRED: "repaired",
        Confidence.REPORTED: "raw",
        Confidence.UNKNOWN: "unknown",
    }
)

_SUBJECT_TOKEN_RE = re.compile(r"[^\w.-]+")
_WORD_SPLIT_RE = re.compile(r"[^\w]+")


@dataclass(frozen=True)
class SignalProvenance:
    """One hardened signal that fed a fired invariant.

    Attributes:
        signal: Which hardened entry, e.g. ``"ext_in/atla"`` or
            ``"links/atla-chic"``.
        disposition: ``raw`` / ``confirmed`` / ``repaired`` /
            ``unknown``.
        confidence: The hardened confidence or verdict value backing
            the disposition (e.g. ``"corroborated"``, ``"up"``,
            ``"drained"``).
        source: The hardened entry's own provenance note or joined
            evidence strings.
    """

    signal: str
    disposition: str
    confidence: str
    source: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "signal": self.signal,
            "disposition": self.disposition,
            "confidence": self.confidence,
            "source": self.source,
        }


@dataclass(frozen=True)
class FiredInvariant:
    """One violated invariant with its contributing signals."""

    name: str
    kind: str
    entity: str
    description: str
    error: Optional[float]
    signals: Tuple[SignalProvenance, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "entity": self.entity,
            "description": self.description,
            "error": self.error,
            "signals": [signal.to_dict() for signal in self.signals],
        }


@dataclass(frozen=True)
class VerdictProvenance:
    """Provenance record for one input verdict.

    ``fired`` is empty exactly when the verdict is valid;
    ``redundancies`` lists the paper redundancy codes (``R1``..``R4``)
    of hardening findings about the same entities as the fired
    invariants.
    """

    input_name: str
    valid: bool
    num_violations: int
    num_evaluated: int
    fired: Tuple[FiredInvariant, ...]
    redundancies: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "input": self.input_name,
            "valid": self.valid,
            "num_violations": self.num_violations,
            "num_evaluated": self.num_evaluated,
            "fired": [invariant.to_dict() for invariant in self.fired],
            "redundancies": list(self.redundancies),
        }

    def describe(self) -> str:
        """One line per fired invariant, for the trace CLI."""
        if self.valid:
            return f"{self.input_name}: valid"
        lines = [
            f"{self.input_name}: {self.num_violations} violations / "
            f"{self.num_evaluated} invariants"
            + (f"  [{', '.join(self.redundancies)}]" if self.redundancies else "")
        ]
        for invariant in self.fired:
            via = ", ".join(
                f"{signal.signal} ({signal.disposition}@{signal.confidence})"
                for signal in invariant.signals
            )
            error = "" if invariant.error is None else f" err={invariant.error:.2%}"
            lines.append(f"  {invariant.name}{error} via {via or 'no hardened signal'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------


def _split_name(name: str) -> Tuple[str, str]:
    """``demand/row-sum/atla`` -> (``demand/row-sum``, ``atla``)."""
    parts = name.split("/")
    if len(parts) < 2:
        return name, ""
    return "/".join(parts[:2]), "/".join(parts[2:])


def _scalar(signal: str, value: Optional[HardenedValue]) -> SignalProvenance:
    if value is None:
        return SignalProvenance(signal, "unknown", "unknown", "absent from hardened state")
    return SignalProvenance(
        signal,
        DISPOSITIONS[value.confidence],
        value.confidence.value,
        value.source,
    )


def _link(signal: str, status: Optional[HardenedLinkStatus]) -> SignalProvenance:
    if status is None:
        return SignalProvenance(signal, "unknown", "unknown", "absent from hardened state")
    # Links have no Confidence ladder; two or more independent evidence
    # notes means the verdict was cross-checked (R1/R3/R4), one means a
    # single vantage point.
    disposition = "confirmed" if len(status.evidence) >= 2 else "raw"
    return SignalProvenance(signal, disposition, status.verdict.value, "; ".join(status.evidence))


def _drain(signal: str, drain: Optional[HardenedDrain]) -> SignalProvenance:
    if drain is None:
        return SignalProvenance(signal, "unknown", "unknown", "absent from hardened state")
    disposition = "confirmed" if len(drain.evidence) >= 2 else "raw"
    return SignalProvenance(signal, disposition, drain.verdict.value, "; ".join(drain.evidence))


def _resolve_signals(kind: str, entity: str, hardened: HardenedState) -> Tuple[SignalProvenance, ...]:
    """Map an invariant kind + entity onto the hardened entries it read."""
    if kind == "demand/row-sum":
        return (_scalar(f"ext_in/{entity}", hardened.ext_in.get(entity)),)
    if kind == "demand/col-sum":
        return (_scalar(f"ext_out/{entity}", hardened.ext_out.get(entity)),)
    if kind.startswith("topology/"):
        return (_link(f"links/{entity}", hardened.links.get(entity)),)
    if kind.startswith("drain/node"):
        return (_drain(f"node_drains/{entity}", hardened.node_drains.get(entity)),)
    if kind == "drain/reason-supported":
        return (_drain(f"node_drains/{entity}", hardened.node_drains.get(entity)),)
    if kind.startswith("drain/link"):
        return (_drain(f"link_drains/{entity}", hardened.link_drains.get(entity)),)
    return ()


def _subject_tokens(subject: str) -> frozenset:
    """Tokens of a finding subject, at link and node granularity.

    ``"atla-chic"`` yields ``{"atla-chic", "atla", "chic"}`` so a
    row-sum invariant on node ``atla`` matches a link-level finding.
    """
    tokens = set()
    for token in _SUBJECT_TOKEN_RE.split(subject):
        if token:
            tokens.add(token)
            for word in _WORD_SPLIT_RE.split(token):
                if word:
                    tokens.add(word)
    return frozenset(tokens)


def _implicated_redundancies(
    findings: List[Finding], fired: Tuple[FiredInvariant, ...]
) -> Tuple[str, ...]:
    """R-codes of hardening findings about the fired invariants' entities."""
    if not fired:
        return ()
    entities = set()
    for invariant in fired:
        for word in _WORD_SPLIT_RE.split(invariant.entity):
            if word:
                entities.add(word)
        if invariant.entity:
            entities.add(invariant.entity)
    codes = set()
    for finding in findings:
        if not finding.redundancy:
            continue
        if entities & _subject_tokens(finding.subject):
            codes.add(finding.redundancy)
    return tuple(sorted(codes))


def build_provenance(check: CheckResult, hardened: HardenedState) -> VerdictProvenance:
    """Derive the provenance record for one input's check result."""
    tally = check.tally
    fired: List[FiredInvariant] = []
    for result in tally.violations:
        invariant = result.invariant
        kind, entity = _split_name(invariant.name)
        fired.append(
            FiredInvariant(
                name=invariant.name,
                kind=kind,
                entity=entity,
                description=invariant.description,
                error=result.error,
                signals=_resolve_signals(kind, entity, hardened),
            )
        )
    return VerdictProvenance(
        input_name=check.input_name,
        valid=not fired,
        num_violations=len(fired),
        num_evaluated=tally.num_evaluated,
        fired=tuple(fired),
        redundancies=_implicated_redundancies(hardened.findings, tuple(fired)),
    )

"""Write-through from validation to the history store.

:class:`HistorySink` is the seam :class:`~repro.engine.runner.ValidationEngine`
and :class:`~repro.stream.ingest.StreamPipeline` hold: each validated
epoch's :class:`~repro.core.report.ValidationReport` flows through
:meth:`HistorySink.record` and lands in the store as one transaction --
the epoch row with its signal-disposition counts, per-input verdict
rows, compacted provenance payloads (invalid inputs only; valid
verdicts carry no fired invariants, so storing their provenance would
be pure bloat at 1M-epoch scale), and, on a configurable cadence,
snapshots of the ``engine_registry`` counter families and retention
sweeps.

Determinism: with ``HistoryConfig.deterministic`` set, the store's
bytes depend only on the validated epochs -- ``recorded_at`` anchors
to the epoch's virtual timestamp instead of the wall clock, measured
latencies are recorded as zero, and timing-derived counter families
(anything whose name mentions seconds/ms/utilisation) are dropped from
snapshots.  Two identical seeded runs then produce byte-identical
store files, which is how the reproducibility test and the fuzz
harness can diff whole stores.

The sink also projects store/alert internals onto a shared
:class:`~repro.obs.metrics.MetricsRegistry` (``history_rows_total``,
``history_store_bytes``, ``history_compactions_total``, ...), so the
existing ``--metrics-prom`` export covers the history layer with no
new flags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.report import ValidationReport
from repro.engine.stats import EngineStats, engine_registry
from repro.history.alerts import AlertEngine
from repro.history.store import HistoryStore, RetentionPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import DISPOSITIONS

__all__ = ["HistoryConfig", "HistorySink"]

#: Name fragments marking counter families as timing-derived; these
#: are excluded from snapshots in deterministic mode (wall-time noise
#: would break byte-reproducibility of the store).
_TIMING_FRAGMENTS = ("seconds", "_ms", "utilisation", "latency")


@dataclass(frozen=True)
class HistoryConfig:
    """How a :class:`HistorySink` writes through to its store.

    Attributes:
        path: The sqlite store file.
        deterministic: Anchor ``recorded_at`` to epoch virtual time,
            zero out measured latencies, and drop timing-derived
            counter families -- byte-reproducible stores (see module
            docstring).  Off by default: live deployments want real
            wall anchors and latencies.
        counter_snapshot_every: Snapshot the engine counter families
            every N epochs (0 disables).  Snapshot cost is O(families),
            so the cadence bounds write-through overhead at soak scale.
        retention: Size/age/count bounds enforced during the run.
        retention_every: Enforce retention every N epochs (0 defers it
            all to an explicit ``compact``).
        compact_every: Full compaction (checkpoint + VACUUM rewrite)
            every N epochs (0 = only on close/CLI).  VACUUM rewrites
            the file, so this should be orders of magnitude rarer than
            retention sweeps.
    """

    path: str
    deterministic: bool = False
    counter_snapshot_every: int = 10
    retention: RetentionPolicy = field(default_factory=RetentionPolicy)
    retention_every: int = 50
    compact_every: int = 0

    def __post_init__(self) -> None:
        for name in ("counter_snapshot_every", "retention_every", "compact_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def _signal_dispositions(report: ValidationReport) -> Tuple[int, int, int, int]:
    """Count hardened signals by disposition for one epoch.

    Scalar signals carry the Confidence ladder directly; link and
    drain entries follow the provenance module's convention -- two or
    more independent evidence notes means cross-checked (confirmed),
    one means a single vantage point (raw).
    """
    counts = {"confirmed": 0, "repaired": 0, "raw": 0, "unknown": 0}
    hardened = report.hardened
    for table in (hardened.edge_flows, hardened.ext_in, hardened.ext_out, hardened.drops):
        for value in table.values():
            counts[DISPOSITIONS[value.confidence]] += 1
    for status in hardened.links.values():
        counts["confirmed" if len(status.evidence) >= 2 else "raw"] += 1
    for drains in (hardened.node_drains, hardened.link_drains):
        for drain in drains.values():
            counts["confirmed" if len(drain.evidence) >= 2 else "raw"] += 1
    return (counts["confirmed"], counts["repaired"], counts["raw"], counts["unknown"])


class HistorySink:
    """Durable write-through for validated epochs.

    Args:
        config: Write-through policy (:class:`HistoryConfig`).
        store: An already-open writer store; one is opened at
            ``config.path`` when omitted (and then owned -- closed by
            :meth:`close`).
        alerts: Optional :class:`~repro.history.alerts.AlertEngine`;
            fired events are appended to the store's alert ledger in
            addition to the engine's own sink fan-out.
        metrics: Optional shared registry for the ``history_*``
            families (pass the same registry the engine/pipeline use so
            one ``--metrics-prom`` export covers everything).
    """

    def __init__(
        self,
        config: HistoryConfig,
        store: Optional[HistoryStore] = None,
        alerts: Optional[AlertEngine] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self._owns_store = store is None
        self.store = store if store is not None else HistoryStore(config.path, writer=True)
        self.alerts = alerts
        registry = metrics if metrics is not None else MetricsRegistry()
        self._rows_total = registry.counter(
            "history_rows_total",
            "Rows currently retained in the history store, by table.",
            labels=("table",),
        )
        self._store_bytes = registry.gauge(
            "history_store_bytes",
            "Bytes the history store's main database file occupies.",
        )
        self._epochs_written = registry.counter(
            "history_epochs_written_total",
            "Epochs written through to the history store this run.",
        )
        self._compactions = registry.counter(
            "history_compactions_total",
            "Full store compactions (WAL checkpoint + VACUUM rewrite).",
        )
        self._retention_deleted = registry.counter(
            "history_retention_deleted_total",
            "Epoch rows deleted by retention sweeps this run.",
        )
        for counter in (self._epochs_written, self._compactions, self._retention_deleted):
            counter.inc(0.0)
        self._written = 0
        self._refresh_shape_metrics()

    # ------------------------------------------------------------------

    def record(
        self,
        report: ValidationReport,
        *,
        source: str = "engine",
        backend: str = "python",
        sealed_by: str = "batch",
        complete: bool = True,
        updates: int = 0,
        missing: int = 0,
        elapsed_s: float = 0.0,
        stats: Optional[EngineStats] = None,
    ) -> int:
        """Write one validated epoch through to the store.

        Args:
            report: The validation pass outcome.
            source: ``"engine"`` (batch validate) or ``"stream"``.
            sealed_by: How the epoch sealed (``batch`` for direct
                engine calls, the assembler's ``watermark``/``drain``
                for streamed epochs).
            complete / updates / missing: Assembly coverage, where the
                caller has it (streamed epochs).
            elapsed_s: Measured verdict latency for the epoch (zeroed
                in deterministic mode).
            stats: Optional :class:`~repro.engine.stats.EngineStats`
                snapshot for the counter-snapshot cadence.

        Returns:
            The stored ``epoch_id``.
        """
        deterministic = self.config.deterministic
        verdict_rows = [
            (name, verdict.valid, verdict.num_violations, verdict.num_evaluated)
            for name, verdict in sorted(report.verdicts.items())
        ]
        provenance_rows = [
            (name, json.dumps(prov.to_dict(), sort_keys=True, separators=(",", ":")))
            for name, prov in sorted(report.provenance.items())
            if not prov.valid
        ]
        violations = sum(verdict.num_violations for verdict in report.verdicts.values())
        epoch_id = self.store.append_epoch(
            report.timestamp,
            source=source,
            backend=backend,
            sealed_by=sealed_by,
            complete=complete,
            updates=updates,
            missing=missing,
            elapsed_s=0.0 if deterministic else float(elapsed_s),
            detected=report.detected_anything(),
            violations=violations,
            signals=_signal_dispositions(report),
            verdicts=verdict_rows,
            provenance=provenance_rows,
            recorded_at=report.timestamp if deterministic else None,
        )
        self._written += 1
        self._epochs_written.inc()

        cadence = self.config.counter_snapshot_every
        if stats is not None and cadence and self._written % cadence == 0:
            self.store.append_counters(epoch_id, self._counter_samples(stats))

        if self.alerts is not None:
            valid_pairs = [(name, valid) for name, valid, _, _ in verdict_rows]
            for event in self.alerts.observe(self.store.tail(1)[0], valid_pairs):
                self.store.append_alert(
                    event.epoch_id, event.ts, event.rule, event.key,
                    event.severity, event.message,
                )

        sweep = self.config.retention_every
        if sweep and self._written % sweep == 0 and self.config.retention.bounded:
            now = report.timestamp if deterministic else None
            self._retention_deleted.inc(
                self.store.enforce_retention(self.config.retention, now=now)
            )
        rewrite = self.config.compact_every
        if rewrite and self._written % rewrite == 0:
            self.compact()
        self._refresh_shape_metrics()
        return epoch_id

    def _counter_samples(self, stats: EngineStats) -> List[Tuple[str, Dict[str, str], float]]:
        """Project engine stats into snapshot rows, sorted and filtered."""
        samples: List[Tuple[str, Dict[str, str], float]] = []
        for name, labels, value in engine_registry(stats).samples():
            if self.config.deterministic and any(
                fragment in name for fragment in _TIMING_FRAGMENTS
            ):
                continue
            samples.append((name, labels, value))
        samples.sort(key=lambda sample: (sample[0], sorted(sample[1].items())))
        return samples

    def compact(self):
        """Retention + WAL checkpoint + VACUUM, with metrics updated.

        Returns the store's
        :class:`~repro.history.store.CompactionResult`.
        """
        policy = self.config.retention if self.config.retention.bounded else None
        now = None
        if self.config.deterministic:
            newest = self.store.ts_range()
            now = newest[1] if newest is not None else 0.0
        result = self.store.compact(policy, now=now)
        self._compactions.inc()
        self._retention_deleted.inc(result.epochs_deleted)
        self._refresh_shape_metrics()
        return result

    def _refresh_shape_metrics(self) -> None:
        for table, count in self.store.row_counts().items():
            self._rows_total.labels(table=table).set_to(float(count))
        self._store_bytes.set(float(self.store.store_bytes()))

    def close(self) -> None:
        """Flush shape metrics and close what the sink owns."""
        self._refresh_shape_metrics()
        if self.alerts is not None:
            self.alerts.close()
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "HistorySink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

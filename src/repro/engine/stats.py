"""Counter surface for the always-on validation engine.

:class:`EngineStats` is the engine's observable state: epochs
processed, topology-cache hits and misses, wall time per pipeline
stage, and -- on the vector backend -- how many per-entity units each
stage recomputed versus reused from the previous epoch.  It is plain
data -- the engine mutates it, :func:`engine_registry` exports it in
metrics form, and the CLI renders it for humans (or as JSON via
:meth:`EngineStats.to_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["EngineStats", "engine_registry"]

#: Pipeline stages the engine times, in execution order.
STAGES = ("collect", "harden", "check")


@dataclass
class EngineStats:
    """Aggregate counters over an engine's lifetime.

    Attributes:
        epochs: Validation passes completed.
        cache_hits: Epochs that reused a memoized topology cache.
        cache_misses: Epochs that had to build topology structures.
        stage_seconds: Cumulative wall time per pipeline stage
            (``collect``, ``harden``, ``check``) plus ``total``.
        backend: ``"python"`` (the per-entity reference units) or
            ``"vector"`` (array-compiled epoch evaluation).
        entities_recomputed: Per fine-grained stage, how many
            per-entity units were computed fresh (vector backend; the
            priming epoch recomputes everything).
        entities_reused: Per fine-grained stage, how many per-entity
            units were served from the previous epoch's outputs.
        repair_solves: Conservation components solved fresh.
        repair_reuses: Conservation components served from the solver
            cache.
    """

    epochs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    stage_seconds: Dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in STAGES + ("total",)}
    )
    backend: str = "python"
    entities_recomputed: Dict[str, int] = field(default_factory=dict)
    entities_reused: Dict[str, int] = field(default_factory=dict)
    repair_solves: int = 0
    repair_reuses: int = 0

    def record_stage(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def record_reuse(self, stage: str, recomputed: int, reused: int) -> None:
        """Count one delta-aware pass over one fine-grained stage."""
        self.entities_recomputed[stage] = (
            self.entities_recomputed.get(stage, 0) + recomputed
        )
        self.entities_reused[stage] = self.entities_reused.get(stage, 0) + reused

    def merge(self, other: "EngineStats") -> None:
        """Fold another engine's counters into this one.

        Used to aggregate totals across several engines (e.g. one per
        replayed scenario); ``backend`` keeps this object's value.
        """
        self.epochs += other.epochs
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        for stage, seconds in other.stage_seconds.items():
            self.record_stage(stage, seconds)
        for stage, count in other.entities_recomputed.items():
            self.entities_recomputed[stage] = (
                self.entities_recomputed.get(stage, 0) + count
            )
        for stage, count in other.entities_reused.items():
            self.entities_reused[stage] = self.entities_reused.get(stage, 0) + count
        self.repair_solves += other.repair_solves
        self.repair_reuses += other.repair_reuses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of epochs served from the topology cache."""
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    def mean_epoch_ms(self) -> float:
        """Mean wall-clock per validation pass, in milliseconds."""
        if not self.epochs:
            return 0.0
        return 1000.0 * self.stage_seconds.get("total", 0.0) / self.epochs

    @property
    def total_entities_recomputed(self) -> int:
        return sum(self.entities_recomputed.values())

    @property
    def total_entities_reused(self) -> int:
        return sum(self.entities_reused.values())

    def reuse_rate(self) -> float:
        """Fraction of per-entity units served without recomputation."""
        total = self.total_entities_recomputed + self.total_entities_reused
        return self.total_entities_reused / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable view of every counter (CLI ``--json``)."""
        return {
            "epochs": self.epochs,
            "backend": self.backend,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "stage_seconds": dict(self.stage_seconds),
            "mean_epoch_ms": self.mean_epoch_ms(),
            "entities_recomputed": dict(self.entities_recomputed),
            "entities_reused": dict(self.entities_reused),
            "reuse_rate": self.reuse_rate(),
            "repair_solves": self.repair_solves,
            "repair_reuses": self.repair_reuses,
        }

    #: ``to_dict`` keys derived from the counters, not stored state;
    #: :meth:`from_dict` ignores them and recomputes on demand so the
    #: round-trip can never drift from the true counters.
    DERIVED_KEYS = ("cache_hit_rate", "mean_epoch_ms", "reuse_rate")

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EngineStats":
        """Rebuild stats from :meth:`to_dict` output.

        The inverse is exact on stored counters:
        ``EngineStats.from_dict(s.to_dict()).to_dict() == s.to_dict()``.
        Derived keys present in the payload are ignored (they are
        recomputed); unknown keys raise so schema drift fails loudly in
        the golden tests instead of silently dropping data.
        """
        known = {
            "epochs", "backend", "cache_hits", "cache_misses",
            "stage_seconds", "entities_recomputed", "entities_reused",
            "repair_solves", "repair_reuses",
        }
        unknown = set(payload) - known - set(cls.DERIVED_KEYS)
        if unknown:
            raise ValueError(f"unknown EngineStats keys: {sorted(unknown)}")
        stage_seconds = dict(payload.get("stage_seconds", {}))  # type: ignore[arg-type]
        return cls(
            epochs=int(payload.get("epochs", 0)),  # type: ignore[arg-type]
            cache_hits=int(payload.get("cache_hits", 0)),  # type: ignore[arg-type]
            cache_misses=int(payload.get("cache_misses", 0)),  # type: ignore[arg-type]
            stage_seconds={k: float(v) for k, v in stage_seconds.items()},
            backend=str(payload.get("backend", "python")),
            entities_recomputed={
                str(k): int(v)
                for k, v in dict(payload.get("entities_recomputed", {})).items()  # type: ignore[arg-type]
            },
            entities_reused={
                str(k): int(v)
                for k, v in dict(payload.get("entities_reused", {})).items()  # type: ignore[arg-type]
            },
            repair_solves=int(payload.get("repair_solves", 0)),  # type: ignore[arg-type]
            repair_reuses=int(payload.get("repair_reuses", 0)),  # type: ignore[arg-type]
        )

    def render(self) -> str:
        """A compact human-readable block (CLI output)."""
        lines = [
            f"epochs processed  : {self.epochs}",
            f"backend           : {self.backend}",
            f"cache hits/misses : {self.cache_hits}/{self.cache_misses}",
        ]
        if self.epochs:
            lines.append(f"mean epoch (ms)   : {self.mean_epoch_ms():.2f}")
            per_stage = "  ".join(
                f"{stage}={1000.0 * self.stage_seconds.get(stage, 0.0) / self.epochs:.2f}"
                for stage in STAGES
            )
            lines.append(f"stage means (ms)  : {per_stage}")
        if self.entities_recomputed or self.entities_reused:
            lines.append(
                "entities          : "
                f"{self.total_entities_recomputed} recomputed / "
                f"{self.total_entities_reused} reused "
                f"({self.reuse_rate():.0%} reuse)"
            )
            lines.append(
                f"repair solves     : {self.repair_solves} fresh / "
                f"{self.repair_reuses} cached"
            )
        return "\n".join(lines)


def engine_registry(
    stats: EngineStats, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Project engine counters into a Prometheus metrics registry.

    Names follow Prometheus conventions: monotonically accumulating
    quantities are counters with a ``_total`` suffix; ratios and
    configuration are gauges.  Per-stage quantities use a ``stage``
    label, with the aggregate epoch time under
    ``engine_stage_seconds_total{stage="all"}``.

    Projection uses absolute snapshot writes (``set_to``), so re-running
    it against a shared ``registry`` (e.g. the engine's own, which
    already holds the latency histograms) is idempotent rather than
    double-counting.
    """
    reg = registry if registry is not None else MetricsRegistry()

    reg.counter("engine_epochs_total", "Validation passes completed.").set_to(stats.epochs)
    reg.counter(
        "engine_cache_hits_total", "Epochs that reused a memoized topology cache."
    ).set_to(stats.cache_hits)
    reg.counter(
        "engine_cache_misses_total", "Epochs that had to build topology structures."
    ).set_to(stats.cache_misses)
    reg.counter(
        "engine_entities_recomputed_total",
        "Per-entity units computed fresh, summed over stages.",
    ).set_to(stats.total_entities_recomputed)
    reg.counter(
        "engine_entities_reused_total",
        "Per-entity units served from the previous epoch, summed over stages.",
    ).set_to(stats.total_entities_reused)
    reg.counter(
        "engine_repair_solves_total", "Conservation components solved fresh."
    ).set_to(stats.repair_solves)
    reg.counter(
        "engine_repair_reuses_total", "Conservation components served from the solver cache."
    ).set_to(stats.repair_reuses)

    stage_seconds = reg.counter(
        "engine_stage_seconds_total",
        "Cumulative wall seconds per pipeline stage ('all' is the whole epoch).",
        labels=("stage",),
    )
    for stage in sorted(stats.stage_seconds):
        label = "all" if stage == "total" else stage
        stage_seconds.labels(stage=label).set_to(stats.stage_seconds[stage])
    recomputed = reg.counter(
        "engine_stage_recomputed_total",
        "Per-entity units computed fresh, by fine-grained stage.",
        labels=("stage",),
    )
    for stage in sorted(stats.entities_recomputed):
        recomputed.labels(stage=stage).set_to(stats.entities_recomputed[stage])
    reused = reg.counter(
        "engine_stage_reused_total",
        "Per-entity units served from the previous epoch, by fine-grained stage.",
        labels=("stage",),
    )
    for stage in sorted(stats.entities_reused):
        reused.labels(stage=stage).set_to(stats.entities_reused[stage])

    # Info-style gauge: one sample, value 1, the backend as a label.
    reg.gauge(
        "engine_backend_info",
        "Active evaluation backend (value 1 on the active label).",
        labels=("backend",),
    ).labels(backend=stats.backend).set(1.0)
    reg.gauge(
        "engine_cache_hit_rate", "Fraction of epochs served from the topology cache."
    ).set(stats.cache_hit_rate)
    reg.gauge("engine_mean_epoch_ms", "Mean wall-clock per validation pass (ms).").set(
        stats.mean_epoch_ms()
    )
    reg.gauge(
        "engine_reuse_rate", "Fraction of per-entity units served without recomputation."
    ).set(stats.reuse_rate())
    return reg

"""The tri-modal differential oracle.

One generated timeline is executed through the repo's independent
validation paths and every pair of answers must agree:

1. **Serial reference** -- each epoch's :class:`~repro.scenarios.world.
   World` runs the full Figure 1 pipeline; its embedded serial Hodor
   report is the ground truth.
2. **Engine backends** -- the same snapshots and inputs flow through
   a :class:`~repro.engine.ValidationEngine` on the ``python`` backend
   (the serial per-entity units behind the topology cache) and on the
   ``vector`` backend (:mod:`repro.core.vector`), whose delta-aware
   epochs must reproduce the per-entity units finding-for-finding.  One
   engine per backend is kept alive across the timeline so cross-epoch
   reuse is actually exercised.
3. **Streamed** -- the snapshots are decomposed into per-router feeds
   (optionally perturbed in-window), sealed as event buffers by the
   watermark :class:`~repro.stream.assembler.EpochAssembler`, and
   validated by the ingest pipeline on the vector backend: the path
   every fleet tenant takes.

A verdict or provenance divergence in any mode at any epoch -- or any
crash while executing the timeline -- is a failure.  The ``hooks``
seam exists for mutation-testing the harness itself: a hook maps
``(epoch_index, report) -> report`` for one mode, letting tests plant
a mode-divergence bug and prove the fuzzer finds and shrinks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.report import ValidationReport
from repro.engine import ValidationEngine, compare_reports
from repro.fuzz.spec import TimelineSpec
from repro.stream import EpochAssembler, StreamPipeline, make_feeds

__all__ = ["ModeDivergence", "OracleResult", "TriModalOracle"]

#: A mutation-test hook: (epoch_index, report) -> possibly-altered report.
ReportHook = Callable[[int, ValidationReport], ValidationReport]


@dataclass(frozen=True)
class ModeDivergence:
    """One mode disagreeing with the serial reference at one epoch."""

    mode: str
    epoch_index: int
    diffs: Tuple[str, ...]

    def summary(self) -> str:
        head = self.diffs[0] if self.diffs else "provenance diverged"
        return f"{self.mode} mode, epoch {self.epoch_index}: {head}"


@dataclass(frozen=True)
class OracleResult:
    """The oracle's verdict on one timeline."""

    passed: bool
    epochs: int
    crash: str = ""
    divergences: Tuple[ModeDivergence, ...] = ()

    @property
    def failed(self) -> bool:
        return not self.passed

    @property
    def kind(self) -> str:
        """``"pass"``, ``"crash"``, or ``"divergence"``."""
        if self.passed:
            return "pass"
        return "crash" if self.crash else "divergence"

    def detail(self) -> str:
        if self.passed:
            return "all modes agree"
        if self.crash:
            return self.crash
        return "; ".join(d.summary() for d in self.divergences[:3])


def _provenance_dict(report: ValidationReport) -> Dict[str, Dict]:
    return {name: record.to_dict() for name, record in report.provenance.items()}


class TriModalOracle:
    """Runs a :class:`TimelineSpec` through all three execution paths.

    Args:
        lateness_s: Assembler lateness window for the streamed mode.
            Must stay above the spec's reorder jitter or in-window
            perturbations would legitimately change results.
        hooks: Optional per-mode report hooks (``"python"``,
            ``"vector"``, ``"streamed"``) used by mutation tests to
            plant divergence bugs; production runs pass none.
    """

    MODES: Tuple[str, ...] = ("python", "vector", "streamed")

    #: The oracle modes that are engine runs; each is named for the
    #: engine backend it runs on.
    _ENGINE_MODES: Tuple[str, ...] = ("python", "vector")

    def __init__(
        self,
        lateness_s: float = 1.0,
        hooks: Optional[Mapping[str, ReportHook]] = None,
    ) -> None:
        self.lateness_s = lateness_s
        self.hooks: Dict[str, ReportHook] = dict(hooks or {})

    # ------------------------------------------------------------------

    def run(self, spec: TimelineSpec) -> OracleResult:
        """Execute the timeline; any disagreement or crash fails it."""
        try:
            epochs, inputs_by_ts, reference = self._reference_run(spec)
        except Exception as exc:  # noqa: BLE001 - a crash IS the finding
            return OracleResult(
                passed=False,
                epochs=spec.num_epochs,
                crash=f"reference run crashed: {type(exc).__name__}: {exc}",
            )

        divergences: List[ModeDivergence] = []
        for mode in self._ENGINE_MODES:
            try:
                reports = self._engine_run(spec, epochs, inputs_by_ts, mode)
            except Exception as exc:  # noqa: BLE001
                return OracleResult(
                    passed=False,
                    epochs=spec.num_epochs,
                    crash=f"{mode} mode crashed: {type(exc).__name__}: {exc}",
                )
            divergences.extend(self._compare(mode, reference, reports))

        try:
            reports = self._streamed_run(spec, epochs, inputs_by_ts)
        except Exception as exc:  # noqa: BLE001
            return OracleResult(
                passed=False,
                epochs=spec.num_epochs,
                crash=f"streamed mode crashed: {type(exc).__name__}: {exc}",
            )
        divergences.extend(self._compare("streamed", reference, reports))

        return OracleResult(
            passed=not divergences,
            epochs=spec.num_epochs,
            divergences=tuple(divergences),
        )

    # ------------------------------------------------------------------

    def _reference_run(self, spec: TimelineSpec):
        epochs = []
        inputs_by_ts = {}
        reference: List[ValidationReport] = []
        for index in range(spec.num_epochs):
            world = spec.world_for_epoch(index)
            outcome = world.run_epoch(timestamp=spec.timestamp_for(index))
            epochs.append((outcome.snapshot.timestamp, outcome.snapshot))
            inputs_by_ts[outcome.snapshot.timestamp] = outcome.inputs
            reference.append(outcome.report)
        return epochs, inputs_by_ts, reference

    def _engine_run(self, spec, epochs, inputs_by_ts, mode) -> List[ValidationReport]:
        hook = self.hooks.get(mode)
        reports = []
        with ValidationEngine(
            spec.topology, config=spec.hodor_config, backend=mode
        ) as engine:
            for index, (timestamp, snapshot) in enumerate(epochs):
                report = engine.validate(snapshot, inputs_by_ts[timestamp])
                if hook is not None:
                    report = hook(index, report)
                reports.append(report)
        return reports

    def _streamed_run(self, spec, epochs, inputs_by_ts) -> List[ValidationReport]:
        hook = self.hooks.get("streamed")
        feeds = make_feeds(epochs, perturb=spec.perturb, seed=spec.perturb_seed)
        assembler = EpochAssembler(list(feeds), lateness_s=self.lateness_s, build_snapshots=False)
        with ValidationEngine(
            spec.topology, config=spec.hodor_config, backend="vector"
        ) as engine:
            pipeline = StreamPipeline(
                list(feeds.values()), assembler, engine, inputs_for=inputs_by_ts
            )
            result = pipeline.run()
        reports = list(result.reports)
        if hook is not None:
            reports = [hook(index, report) for index, report in enumerate(reports)]
        return reports

    def _compare(
        self,
        mode: str,
        reference: List[ValidationReport],
        candidate: List[ValidationReport],
    ) -> List[ModeDivergence]:
        divergences = []
        if len(candidate) != len(reference):
            return [
                ModeDivergence(
                    mode,
                    -1,
                    (
                        f"epoch count mismatch: reference {len(reference)}, "
                        f"{mode} produced {len(candidate)}",
                    ),
                )
            ]
        for index, (ref, got) in enumerate(zip(reference, candidate)):
            diffs = compare_reports(ref, got)
            if not diffs and _provenance_dict(ref) != _provenance_dict(got):
                diffs = ["provenance records diverged"]
            if diffs:
                divergences.append(ModeDivergence(mode, index, tuple(diffs[:5])))
        return divergences

"""Invariant machinery for dynamic checking.

Step 3 of the paper generates input-specific invariants that relate
controller inputs to the hardened network state.  This module provides
the shared shape: an :class:`Invariant` is a named approximate-equality
(or expected-condition) over hardened values, and an
:class:`InvariantResult` records how it evaluated.  Checkers in
:mod:`repro.core.demand_check` and friends produce lists of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "InvariantStatus",
    "Invariant",
    "InvariantResult",
    "CheckTally",
    "CheckResult",
    "relative_error",
]


def relative_error(lhs: float, rhs: float, floor: float = 1e-6) -> float:
    """Relative disagreement between two quantities, floor-protected."""
    magnitude = max(abs(lhs), abs(rhs))
    if magnitude <= floor:
        return 0.0
    return abs(lhs - rhs) / magnitude


class InvariantStatus(Enum):
    """How one invariant evaluated."""

    PASSED = "passed"
    VIOLATED = "violated"
    #: Could not be evaluated (a hardened operand is unknown).
    SKIPPED = "skipped"


@dataclass(frozen=True)
class Invariant:
    """One dynamically generated check.

    Attributes:
        name: Stable identifier, e.g. ``"demand/row-sum/atla"``.
        description: Human-readable equation.
        lhs: Input-side quantity.
        rhs: Hardened-signal-side quantity.
        tolerance: Accepted relative error (tau_e).
    """

    name: str
    description: str
    lhs: Optional[float]
    rhs: Optional[float]
    tolerance: float

    def evaluate(self, floor: float = 1e-6) -> "InvariantResult":
        """Evaluate to a result; unknown operands yield SKIPPED."""
        if self.lhs is None or self.rhs is None:
            return InvariantResult(self, InvariantStatus.SKIPPED, error=None)
        error = relative_error(self.lhs, self.rhs, floor)
        status = (
            InvariantStatus.PASSED if error <= self.tolerance else InvariantStatus.VIOLATED
        )
        return InvariantResult(self, status, error=error)


@dataclass(frozen=True)
class InvariantResult:
    """Evaluation outcome of one invariant."""

    invariant: Invariant
    status: InvariantStatus
    error: Optional[float]

    @property
    def violated(self) -> bool:
        return self.status == InvariantStatus.VIOLATED

    def describe(self) -> str:
        error = "n/a" if self.error is None else f"{self.error:.2%}"
        return f"[{self.status.value}] {self.invariant.name}: {self.invariant.description} (err={error})"


class CheckTally(NamedTuple):
    """What one walk of a :class:`CheckResult`'s results learns.

    Attributes:
        violations: The violated results, in ``results`` order.
        num_evaluated: Results that are not skipped.
        num_results: ``len(results)`` when the tally was taken.
    """

    violations: Tuple[InvariantResult, ...]
    num_evaluated: int
    num_results: int

    @property
    def num_skipped(self) -> int:
        return self.num_results - self.num_evaluated

    @classmethod
    def of(cls, results: Sequence[InvariantResult]) -> "CheckTally":
        """Tally ``results`` in one pass."""
        violations = []
        skipped = 0
        for result in results:
            status = result.status
            if status == InvariantStatus.VIOLATED:
                violations.append(result)
            elif status == InvariantStatus.SKIPPED:
                skipped += 1
        return cls(tuple(violations), len(results) - skipped, len(results))


@dataclass
class CheckResult:
    """Outcome of dynamically checking one controller input.

    Attributes:
        input_name: ``"demand"``, ``"topology"``, or ``"drain"``.
        results: Every invariant evaluated.
        notes: Free-form context (e.g. why invariants were skipped).

    ``violations``, ``passed``, ``num_evaluated`` and ``num_skipped``
    all read one :attr:`tally`.  It is taken by walking ``results`` once
    and kept until ``results`` is rebound or changes length; a producer
    that already counted per entity (the vector backend) hands its tally
    over with :meth:`hand_over` instead, under the same rule.  Replacing
    an element of ``results`` in place is not seen.
    """

    input_name: str
    results: List[InvariantResult] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: ``(results list the tally is of, tally)``.
    _tallied: Optional[Tuple[List[InvariantResult], CheckTally]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def tally(self) -> CheckTally:
        """Violations and counts of the current ``results``."""
        results = self.results
        tallied = self._tallied
        if (
            tallied is not None
            and tallied[0] is results
            and tallied[1].num_results == len(results)
        ):
            return tallied[1]
        tally = CheckTally.of(results)
        self._tallied = (results, tally)
        return tally

    def hand_over(self, violations: Iterable[InvariantResult], num_evaluated: int) -> None:
        """Accept the producer's own tally of the current ``results``.

        ``violations`` must be the violated results in ``results`` order
        and ``num_evaluated`` the count of non-skipped ones;
        :func:`repro.engine.diff.compare_reports` reports a tally that a
        walk of ``results`` contradicts.
        """
        self._tallied = (
            self.results,
            CheckTally(tuple(violations), num_evaluated, len(self.results)),
        )

    @property
    def violations(self) -> List[InvariantResult]:
        """The violated results, as a list the caller owns."""
        return list(self.tally.violations)

    @property
    def passed(self) -> bool:
        """True when no invariant was violated."""
        return not self.tally.violations

    @property
    def num_evaluated(self) -> int:
        return self.tally.num_evaluated

    @property
    def num_skipped(self) -> int:
        return self.tally.num_skipped

    def summary(self) -> str:
        tally = self.tally
        return (
            f"{self.input_name}: {len(tally.violations)} violated / "
            f"{tally.num_evaluated} evaluated ({tally.num_skipped} skipped)"
        )

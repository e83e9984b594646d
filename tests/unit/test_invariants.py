"""Unit tests for the invariant machinery."""

import pytest

from repro.core.invariants import (
    CheckResult,
    CheckTally,
    Invariant,
    InvariantResult,
    InvariantStatus,
    relative_error,
)


class TestRelativeError:
    def test_exact_equality(self):
        assert relative_error(5.0, 5.0) == 0.0

    def test_relative(self):
        assert relative_error(100.0, 98.0) == pytest.approx(0.02)

    def test_symmetric(self):
        assert relative_error(98.0, 100.0) == relative_error(100.0, 98.0)

    def test_floor_protects_zero(self):
        assert relative_error(0.0, 1e-9, floor=1e-6) == 0.0

    def test_zero_vs_large(self):
        assert relative_error(0.0, 10.0) == 1.0


class TestInvariant:
    def test_pass_within_tolerance(self):
        result = Invariant("x", "a == b", 100.0, 101.0, tolerance=0.02).evaluate()
        assert result.status == InvariantStatus.PASSED
        assert not result.violated

    def test_violation(self):
        result = Invariant("x", "a == b", 100.0, 110.0, tolerance=0.02).evaluate()
        assert result.status == InvariantStatus.VIOLATED
        assert result.violated
        assert result.error == pytest.approx(10.0 / 110.0)

    def test_skip_on_unknown_lhs(self):
        result = Invariant("x", "a == b", None, 1.0, tolerance=0.02).evaluate()
        assert result.status == InvariantStatus.SKIPPED
        assert result.error is None

    def test_skip_on_unknown_rhs(self):
        result = Invariant("x", "a == b", 1.0, None, tolerance=0.02).evaluate()
        assert result.status == InvariantStatus.SKIPPED

    def test_zero_tolerance_boolean_style(self):
        assert Invariant("x", "cond", 1.0, 1.0, tolerance=0.0).evaluate().status == (
            InvariantStatus.PASSED
        )
        assert Invariant("x", "cond", 1.0, 0.0, tolerance=0.0).evaluate().status == (
            InvariantStatus.VIOLATED
        )

    def test_describe_renders(self):
        result = Invariant("inv/name", "a == b", 1.0, 2.0, tolerance=0.02).evaluate()
        text = result.describe()
        assert "inv/name" in text and "violated" in text


class TestCheckResult:
    def _result(self, status, error=0.0):
        invariant = Invariant("i", "d", 1.0, 1.0, 0.0)
        return InvariantResult(invariant, status, error)

    def test_counts(self):
        check = CheckResult(
            "demand",
            results=[
                self._result(InvariantStatus.PASSED),
                self._result(InvariantStatus.VIOLATED, 1.0),
                self._result(InvariantStatus.SKIPPED, None),
            ],
        )
        assert check.num_evaluated == 2
        assert check.num_skipped == 1
        assert len(check.violations) == 1
        assert not check.passed

    def test_empty_check_passes(self):
        assert CheckResult("topology").passed

    def test_summary(self):
        check = CheckResult("drain", results=[self._result(InvariantStatus.PASSED)])
        assert "drain" in check.summary()


class TestCheckResultTally:
    """One walk serves every reader, and is taken again exactly when
    ``results`` was rebound or changed length since."""

    def _result(self, status):
        return InvariantResult(Invariant("i", "d", 1.0, 1.0, 0.0), status, None)

    def test_a_read_before_an_append_is_not_served_stale(self):
        # DemandChecker.check reads num_skipped on the result it is still
        # building; callers extend results by hand afterwards.
        check = CheckResult("demand", results=[self._result(InvariantStatus.SKIPPED)])
        assert (check.num_skipped, check.num_evaluated, check.passed) == (1, 0, True)
        violated = self._result(InvariantStatus.VIOLATED)
        check.results.extend([violated, self._result(InvariantStatus.PASSED)])
        assert (check.num_skipped, check.num_evaluated) == (1, 2)
        assert check.violations == [violated] and check.violations[0] is violated
        assert not check.passed

    def test_rebinding_results_retakes_the_tally(self):
        check = CheckResult("drain", results=[self._result(InvariantStatus.PASSED)])
        assert check.passed
        check.results = [self._result(InvariantStatus.VIOLATED)]
        assert not check.passed

    def test_a_handed_over_tally_lives_by_the_same_rule(self):
        passed, violated = (
            self._result(InvariantStatus.PASSED),
            self._result(InvariantStatus.VIOLATED),
        )
        check = CheckResult("topology", results=[passed, violated])
        check.hand_over([violated], num_evaluated=2)
        assert check.tally == CheckTally((violated,), 2, 2)
        check.results.append(self._result(InvariantStatus.SKIPPED))
        assert check.tally == CheckTally.of(check.results) == CheckTally((violated,), 2, 3)

    def test_one_walk_serves_every_reader(self):
        check = CheckResult("demand", results=[self._result(InvariantStatus.VIOLATED)])
        assert check.tally is check.tally
        assert check.violations is not check.violations  # each caller owns its list

    def test_same_length_replacement_in_place_is_not_seen(self):
        # The rule's documented blind spot, pinned so it stays a choice.
        check = CheckResult("drain", results=[self._result(InvariantStatus.PASSED)])
        assert check.passed
        check.results[0] = self._result(InvariantStatus.VIOLATED)
        assert check.passed
        assert not CheckResult("drain", results=list(check.results)).passed

    def test_the_tally_is_not_part_of_equality_or_repr(self):
        results = [self._result(InvariantStatus.VIOLATED)]
        walked, fresh = CheckResult("demand", results=results), CheckResult("demand", results=results)
        assert not walked.passed
        assert walked == fresh and repr(walked) == repr(fresh)

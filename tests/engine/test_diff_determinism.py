"""Regression: compare_reports must emit differences deterministically.

``compare_reports`` used to iterate ``a.verdicts.keys() &
b.verdicts.keys()`` (and the same for ``checks``) straight into its
ordered diff list -- set-intersection order depends on
PYTHONHASHSEED, so the *same* pair of reports could produce
differently-ordered diff output across processes.  The D1 lint rule
now flags that pattern; these tests pin the fixed behaviour: diff
lines come out sorted by key, independent of dict insertion order.
"""

from repro.core.invariants import CheckResult, Invariant
from repro.core.report import InputVerdict, ValidationReport
from repro.core.signals import HardenedState
from repro.engine import compare_reports


def _report(verdict_names, note, order):
    report = ValidationReport(timestamp=1.0, hardened=HardenedState())
    for name in order:
        report.verdicts[name] = InputVerdict(
            input_name=name,
            valid=name not in verdict_names,
            num_violations=1 if name in verdict_names else 0,
            num_evaluated=3,
        )
        # Three evaluated results, one violated when the verdict says so:
        # compare_reports also holds each report to its own results.
        rhs = [0.0 if name in verdict_names else 1.0, 1.0, 1.0]
        report.checks[name] = CheckResult(
            input_name=name,
            results=[
                Invariant(f"{name}/{i}", "lhs == rhs", 1.0, value, 0.0).evaluate()
                for i, value in enumerate(rhs)
            ],
            notes=[note],
        )
    return report


NAMES = ("zeta", "mid", "alpha")  # deliberately not sorted


def test_verdict_diffs_are_sorted_by_key():
    a = _report(verdict_names=set(), note="x", order=NAMES)
    b = _report(verdict_names=set(NAMES), note="x", order=NAMES)
    verdict_lines = [d for d in compare_reports(a, b) if d.startswith("verdicts[")]
    assert len(verdict_lines) == 3
    assert verdict_lines == sorted(verdict_lines)
    assert [line.split("'")[1] for line in verdict_lines] == ["alpha", "mid", "zeta"]


def test_check_note_diffs_are_sorted_by_key():
    a = _report(verdict_names=set(), note="x", order=NAMES)
    b = _report(verdict_names=set(), note="y", order=NAMES)
    check_lines = [d for d in compare_reports(a, b) if d.startswith("checks[")]
    assert [line.split("'")[1] for line in check_lines] == ["alpha", "mid", "zeta"]


def test_diff_output_is_identical_across_insertion_orders():
    # Same logical reports built with opposite dict insertion orders
    # must yield byte-identical diff lists (set iteration no longer
    # leaks into the output).  Key *order* differences are still
    # reported -- via the explicit key-order diff, not via ordering of
    # the per-key lines.
    a1 = _report(verdict_names=set(), note="x", order=NAMES)
    b1 = _report(verdict_names=set(NAMES), note="y", order=NAMES)
    a2 = _report(verdict_names=set(), note="x", order=tuple(reversed(NAMES)))
    b2 = _report(verdict_names=set(NAMES), note="y", order=tuple(reversed(NAMES)))
    diffs_1 = [d for d in compare_reports(a1, b1) if not d.startswith(("verdicts: ", "checks: "))]
    diffs_2 = [d for d in compare_reports(a2, b2) if not d.startswith(("verdicts: ", "checks: "))]
    assert diffs_1 == diffs_2
    assert diffs_1  # the reports really do differ


def test_identical_reports_still_compare_clean():
    a = _report(verdict_names=set(), note="x", order=NAMES)
    b = _report(verdict_names=set(), note="x", order=NAMES)
    assert compare_reports(a, b) == []

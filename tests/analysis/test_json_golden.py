"""One JSON schema, golden-pinned: ``--json``, suppressions, EngineStats.

The lint payload the CLI prints, the payload ``run_lint`` returns, and
the suppression entries embedded in it are the same document; this
module pins it against a golden file and proves both
``LintResult`` and ``EngineStats`` round-trip through their dict forms
without drift.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import run_lint, to_json_text
from repro.analysis.runner import LintResult
from repro.engine import EngineStats

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def test_json_output_matches_golden():
    result = run_lint(FIXTURES / "suppressed")
    payload = json.loads(to_json_text(result))
    payload["root"] = "<ROOT>"
    payload["timing"]["wall_time_s"] = "<WALL>"
    golden = json.loads((GOLDEN / "suppressed.json").read_text())
    assert payload == golden


def test_lint_result_payload_round_trips():
    result = run_lint(FIXTURES / "suppressed")
    payload = result.to_payload()
    rebuilt = LintResult.from_payload(payload)
    assert rebuilt.to_payload() == payload
    assert rebuilt.diagnostics == result.diagnostics
    assert rebuilt.suppressed_count == result.suppressed_count


def test_lint_result_rejects_unknown_payload_version():
    result = run_lint(FIXTURES / "clean")
    payload = result.to_payload()
    payload["version"] = 99
    with pytest.raises(ValueError):
        LintResult.from_payload(payload)


def _populated_stats():
    stats = EngineStats(backend="vector")
    stats.epochs = 7
    stats.cache_hits = 6
    stats.cache_misses = 1
    stats.record_stage("collect", 0.25)
    stats.record_stage("harden", 0.5)
    stats.record_stage("check", 0.125)
    stats.record_stage("total", 1.0)
    stats.record_reuse("counters", 4, 60)
    stats.record_reuse("demand", 2, 30)
    stats.repair_solves = 3
    stats.repair_reuses = 9
    return stats


def test_engine_stats_round_trips_through_to_dict():
    stats = _populated_stats()
    payload = stats.to_dict()
    rebuilt = EngineStats.from_dict(payload)
    assert rebuilt.to_dict() == payload
    # Derived keys were recomputed from counters, not copied through.
    assert rebuilt.cache_hit_rate == pytest.approx(6 / 7)
    assert rebuilt.reuse_rate() == pytest.approx(90 / 96)


def test_engine_stats_from_dict_ignores_derived_but_rejects_unknown():
    payload = _populated_stats().to_dict()
    for key in EngineStats.DERIVED_KEYS:
        assert key in payload  # golden: to_dict still exports them
    payload["mystery_counter"] = 5
    with pytest.raises(ValueError, match="mystery_counter"):
        EngineStats.from_dict(payload)


def test_engine_stats_json_round_trip_via_text():
    stats = _populated_stats()
    text = json.dumps(stats.to_dict(), sort_keys=True)
    rebuilt = EngineStats.from_dict(json.loads(text))
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == text

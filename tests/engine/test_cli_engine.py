"""Golden tests for ``python -m repro engine``."""

import json

import pytest

from repro.__main__ import main

from tests.obs.test_metrics import parse_exposition


class TestEngineCommand:
    def test_single_scenario_golden_output(self, capsys):
        assert main(["engine", "--scenario", "S16", "--epochs", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "id   epochs  flagged  matches serial"
        assert lines[2] == "S16  3       0/3      yes"
        assert "epochs processed  : 3" in out
        assert "backend           : python" in out
        assert "cache hits/misses : 2/1" in out

    def test_metrics_flag(self, capsys):
        assert main(["engine", "--scenario", "S01", "--epochs", "2", "--metrics"]) == 0
        out = capsys.readouterr().out
        _, types, samples = parse_exposition(out[out.index("# HELP"):])
        assert samples[("engine_epochs_total", ())] == 2
        assert samples[("engine_cache_hits_total", ())] == 1
        assert samples[("engine_cache_misses_total", ())] == 1
        assert types["engine_epoch_latency_seconds"] == "histogram"

    def test_detecting_scenario_flags_every_epoch(self, capsys):
        assert main(["engine", "--scenario", "S01", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "S01  2       2/2      yes" in out

    def test_json_output_golden(self, capsys):
        assert main(
            ["engine", "--scenario", "S16", "--epochs", "3", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mismatched"] == 0
        assert payload["scenarios"] == [
            {"epochs": 3, "flagged": 0, "id": "S16", "matches_serial": True}
        ]
        stats = payload["stats"]
        assert stats["epochs"] == 3
        assert stats["cache_hits"] == 2
        assert stats["cache_misses"] == 1
        assert stats["backend"] == "python"
        assert set(stats) == {
            "epochs", "backend", "cache_hits", "cache_misses", "cache_hit_rate",
            "stage_seconds", "mean_epoch_ms", "entities_recomputed",
            "entities_reused", "reuse_rate", "repair_solves", "repair_reuses",
        }
        assert set(stats["stage_seconds"]) == {"collect", "harden", "check", "total"}

    def test_vector_backend_reports_reuse(self, capsys):
        assert main(
            ["engine", "--scenario", "S16", "--epochs", "3", "--backend", "vector"]
        ) == 0
        out = capsys.readouterr().out
        assert "S16  3       0/3      yes" in out
        assert "backend           : vector" in out
        assert "entities          : " in out
        assert "repair solves     : " in out

    def test_vector_json_counts_reused_entities(self, capsys):
        assert main(
            [
                "engine",
                "--scenario",
                "S16",
                "--epochs",
                "3",
                "--backend",
                "vector",
                "--json",
            ]
        ) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["backend"] == "vector"
        assert sum(stats["entities_recomputed"].values()) > 0
        assert sum(stats["entities_reused"].values()) > 0
        assert 0.0 < stats["reuse_rate"] < 1.0

    def test_unknown_backend_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["engine", "--scenario", "S01", "--backend", "sideways"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        assert main(["engine", "--scenario", "S99"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'S99'" in err
        assert "S01" in err  # the error lists the known ids

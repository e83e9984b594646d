"""Integration: every study runs and its headline shapes hold.

These are smaller-sample versions of the benchmark runs, asserting the
*shapes* the paper reports rather than exact percentages.
"""

import pytest

from repro.experiments import (
    DrainStudy,
    HardeningStudy,
    OutageStudy,
    PerturbationStudy,
    ThresholdStudy,
    TopologyStudy,
    format_table,
    taxonomy_census,
)
from repro.scenarios.catalog import Category, all_scenarios


class TestPerturbationStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return PerturbationStudy(matrices=6, seed=0)

    def test_detection_monotone_in_zeroed_entries(self, study):
        rows = study.run(zero_counts=(1, 2, 3), trials=90)
        rates = [row.detection_rate for row in rows]
        assert rates[0] <= rates[1] + 0.05  # allow sampling noise
        assert rates[2] >= rates[0]

    def test_paper_operating_point(self, study):
        rows = study.run(zero_counts=(2, 3), trials=120)
        by_zeroed = {row.zeroed: row.detection_rate for row in rows}
        assert by_zeroed[2] >= 0.95  # paper: 99.2%
        assert by_zeroed[3] >= 0.98  # paper: 100%

    def test_no_false_positives_at_default_tau(self, study):
        assert study.false_positive_rate(tau_e=0.02) == 0.0

    def test_tau_sweep_monotone(self, study):
        rows = study.tau_sweep(taus=(0.01, 0.1), zeroed=2, trials=60)
        assert rows[0].detection_rate >= rows[1].detection_rate

    def test_scaling_detection_far_from_one(self, study):
        results = dict(study.scaling_perturbations(factors=(0.5, 2.0), count=2, trials=40))
        assert results[0.5].detection_rate > 0.8
        assert results[2.0].detection_rate > 0.8

    def test_bad_matrix_count(self):
        with pytest.raises(ValueError):
            PerturbationStudy(matrices=0)


class TestOutageStudy:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return OutageStudy(history_epochs=6, seed=1).run()

    def test_hodor_detects_majority(self, outcomes):
        """The paper's E3 claim: the majority of incorrect-input
        outages would have been averted."""
        summary = OutageStudy.summarize(outcomes)
        assert summary["hodor_detection_rate"] > 0.5

    def test_hodor_beats_baselines(self, outcomes):
        summary = OutageStudy.summarize(outcomes)
        assert summary["hodor_detection_rate"] > summary["static_detection_rate"]
        assert summary["hodor_detection_rate"] > summary["anomaly_detection_rate"]

    def test_static_false_positive_on_disaster(self, outcomes):
        summary = OutageStudy.summarize(outcomes)
        assert summary["static_false_positive_rate"] == 1.0
        assert summary["hodor_false_positive_rate"] == 0.0

    def test_every_scenario_correct_for_hodor(self, outcomes):
        assert all(outcome.hodor_correct for outcome in outcomes)

    def test_census_matches_catalog(self):
        census = taxonomy_census()
        assert sum(census.values()) == len(all_scenarios())
        assert census[Category.LEGITIMATE] == 1


class TestThresholdStudy:
    def test_false_positive_rate_grows_with_jitter(self):
        study = ThresholdStudy(seed=0)
        rows = study.false_positive_sweep(tau_values=(0.02,), jitters=(0.005, 0.04), trials=2)
        by_jitter = {row.jitter: row.false_positive_rate for row in rows}
        assert by_jitter[0.005] < by_jitter[0.04]

    def test_paper_threshold_clean_at_production_jitter(self):
        """tau_h = 2% yields ~no false flags at ~1% counter jitter."""
        study = ThresholdStudy(seed=0)
        rows = study.false_positive_sweep(tau_values=(0.02,), jitters=(0.01,), trials=3)
        assert rows[0].false_positive_rate < 0.02

    def test_detectability_grows_with_corruption(self):
        study = ThresholdStudy(seed=0)
        rows = study.detectability_sweep(
            tau_values=(0.02,), corruptions=(0.01, 0.5), trials=10
        )
        by_corruption = {row.corruption: row.detection_rate for row in rows}
        assert by_corruption[0.5] > by_corruption[0.01]


class TestHardeningStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return HardeningStudy(seed=0)

    def test_isolated_corruption_fully_handled(self, study):
        row = study.corruption_sweep(counts=(1,), trials=8)[0]
        assert row.recall == 1.0
        assert row.repair_rate > 0.9

    def test_repair_degrades_with_clustering(self, study):
        rows = study.corruption_sweep(counts=(1, 12), trials=6)
        assert rows[0].repair_rate >= rows[1].repair_rate

    def test_r1_only_ablation_detects_but_cannot_repair(self, study):
        row = study.corruption_sweep(counts=(2,), trials=6, enable_repair=False)[0]
        assert row.recall == 1.0
        assert row.repair_rate == 0.0
        assert row.unknown_rate == 1.0

    def test_correlated_bug_blind_spot(self, study):
        result = study.correlated_vendor_bug()
        # Directions where both endpoints lie identically are invisible
        # to R1 -- the paper's open question, quantified.
        assert result.blind_flagged == 0
        assert result.visible_flagged == result.visible_directions


class TestTopologyStudy:
    def test_balanced_profile_handles_all_modes(self):
        study = TopologyStudy(seed=0)
        rows = study.run(
            modes=("clean", "both-lie-up", "blackhole"),
            profiles=("balanced",),
            max_links=6,
        )
        for row in rows:
            assert row.correct + row.suspect == row.links
            assert row.accuracy >= 0.8

    def test_evidence_ablation_monotone(self):
        study = TopologyStudy(seed=0)
        rows = study.evidence_ablation(mode="both-lie-up")
        # with zero redundancy the lie wins; with counters it is caught;
        # probes keep it caught
        accuracies = [row.accuracy for row in rows]
        assert accuracies[0] <= accuracies[1] <= accuracies[2] + 1e-9

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            TopologyStudy().run(modes=("nope",))


class TestDrainStudy:
    def test_all_cases_scored_correctly(self):
        rows = DrainStudy(seed=0).run(trials=3)
        for row in rows:
            assert row.correct_rate == 1.0, row.case

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            DrainStudy().run(cases=("nope",))


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestConfidenceIntervals:
    def test_wilson_interval_contains_rate(self):
        from repro.experiments import PerturbationRow

        row = PerturbationRow(2, 0.02, 240, 237)
        lo, hi = row.confidence_interval()
        assert lo <= row.detection_rate <= hi
        assert 0.0 <= lo < hi <= 1.0

    def test_paper_number_inside_measured_interval(self):
        """The paper's 99.2%-at-k=2 must lie inside the 95% interval of
        our measured rate -- the statistical statement behind the
        'shape matches' claim."""
        from repro.experiments import PerturbationStudy

        study = PerturbationStudy(matrices=8, seed=0)
        row = study.run(zero_counts=(2,), trials=240)[0]
        lo, hi = row.confidence_interval()
        assert lo <= 0.992 <= hi

    def test_boundary_cases(self):
        from repro.experiments import PerturbationRow

        perfect = PerturbationRow(3, 0.02, 100, 100)
        lo, hi = perfect.confidence_interval()
        # Wilson never claims certainty from finite trials.
        assert 0.999 < hi <= 1.0 and lo > 0.95
        empty = PerturbationRow(1, 0.02, 0, 0)
        assert empty.confidence_interval() == (0.0, 1.0)

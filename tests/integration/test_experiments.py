"""Integration tests: every experiment module runs and reproduces the
paper's qualitative claims (reduced repetitions for CI speed)."""

import numpy as np
import pytest

from repro.experiments.fig11_availability import run_fig11
from repro.experiments.fig12_linearity import run_fig12
from repro.experiments.fig13_effectiveness import run_fig13
from repro.experiments.fig14_satisfied import run_fig14
from repro.experiments.fig15_throughput import run_fig15
from repro.experiments.fig16_payoff import run_fig16
from repro.experiments.fig17_adpar_quality import run_fig17
from repro.experiments.fig18_scalability import run_fig18_adpar, run_fig18_batch
from repro.experiments.table6_model_fits import run_table6


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig11(pool_size=300, repetitions=6, seed=23)

    def test_window2_peak(self, result):
        assert result.data["window2_peak"]

    def test_availability_distribution_estimable(self, result):
        dist = result.data["distribution"]
        assert 0.3 <= dist.expectation() <= 1.0

    def test_series_cover_three_windows(self, result):
        for values in result.data["series"].values():
            assert len(values) == 3


class TestTable6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table6(seed=5, samples_per_level=4)

    def test_ci_containment_high(self, result):
        assert result.data["ci_containment"] >= 0.8

    def test_all_four_pairs_fitted(self, result):
        assert len(result.data["fits"]) == 4

    def test_fitted_signs_match_paper(self, result):
        for calibration in result.data["fits"].values():
            assert calibration.quality_fit.alpha > 0
            assert calibration.cost_fit.alpha > 0
            assert calibration.latency_fit.alpha < 0


class TestFig12:
    def test_monotone_relationships(self):
        result = run_fig12(seed=9, samples_per_level=3)
        assert result.data["monotone_ok"]


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig13(tasks_per_type=10, seed=31)

    @pytest.mark.parametrize("task_type", ["translation", "creation"])
    def test_quality_gain_significant(self, result, task_type):
        data = result.data[task_type]
        assert data["quality_gain"] > 0
        assert data["quality_p"] < 0.05

    @pytest.mark.parametrize("task_type", ["translation", "creation"])
    def test_latency_reduction_significant(self, result, task_type):
        data = result.data[task_type]
        assert data["latency_gain"] > 0
        assert data["latency_p"] < 0.05

    def test_edit_war_roughly_doubles_edits(self, result):
        mirrors = result.data["mirrors"]
        guided = np.mean([m.guided_edits for m in mirrors])
        unguided = np.mean([m.unguided_edits for m in mirrors])
        assert unguided / guided > 1.3

    def test_cost_roughly_fixed(self, result):
        for task_type in ("translation", "creation"):
            rows = dict((row[0], row[1:]) for row in result.data[task_type]["rows"])
            guided_cost, unguided_cost = rows["Cost ($)"]
            assert abs(guided_cost - unguided_cost) < 2.0


class TestFig14:
    #: ``run_fig14(repetitions=4, seed=17, quick=True).data``, recorded
    #: exactly: the figures are deterministic, so a change to workforce
    #: selection, planning or seeding that moves any rate fails here.
    QUICK_DATA = {
        "k": {
            "x": [10, 100, 1000],
            "Uniform": [0.27499999999999997, 0.175, 0.0],
            "Normal": [0.27499999999999997, 0.175, 0.0],
        },
        "m": {
            "x": [10, 100, 1000],
            "Uniform": [0.35, 0.365, 0.30425],
            "Normal": [0.3, 0.29000000000000004, 0.25175000000000003],
        },
        "n_strategies": {
            "x": [10, 100, 1000, 10000],
            "Uniform": [0.0, 0.05, 0.2, 0.475],
            "Normal": [0.0, 0.0, 0.15, 0.4],
        },
        "availability": {
            "x": [0.5, 0.6, 0.7, 0.8, 0.9],
            "Uniform": [
                0.4, 0.32499999999999996, 0.35000000000000003,
                0.42500000000000004, 0.35,
            ],
            "Normal": [
                0.375, 0.32499999999999996, 0.3, 0.42500000000000004,
                0.30000000000000004,
            ],
        },
    }

    @pytest.fixture(scope="class")
    def result(self):
        return run_fig14(repetitions=4, seed=17, quick=True)

    def test_quick_data_is_exactly_the_recorded_values(self, result):
        assert result.data == self.QUICK_DATA

    def test_satisfaction_decreases_with_k(self, result):
        for series in ("Uniform", "Normal"):
            values = result.data["k"][series]
            assert values[0] >= values[-1]

    def test_satisfaction_increases_with_catalog(self, result):
        for series in ("Uniform", "Normal"):
            values = result.data["n_strategies"][series]
            assert values[-1] >= values[0]

    def test_satisfaction_nondecreasing_with_availability(self, result):
        for series in ("Uniform", "Normal"):
            values = result.data["availability"][series]
            assert values[-1] >= values[0] - 0.1

    def test_rates_are_fractions(self, result):
        for panel in result.data.values():
            if isinstance(panel, dict) and "Uniform" in panel:
                for series in ("Uniform", "Normal"):
                    assert all(0.0 <= v <= 1.0 for v in panel[series])


class TestFig15And16:
    @pytest.fixture(scope="class")
    def fig15(self):
        return run_fig15(repetitions=4, seed=41)

    @pytest.fixture(scope="class")
    def fig16(self):
        return run_fig16(repetitions=4, seed=43)

    def test_throughput_greedy_exact_everywhere(self, fig15):
        assert fig15.data["exact_everywhere"]

    def test_baseline_never_above_batchstrat(self, fig15):
        for panel in ("k", "m", "n_strategies"):
            data = fig15.data[panel]
            for baseline, batch in zip(data["BaselineG"], data["BatchStrat"]):
                assert baseline <= batch + 1e-9

    def test_payoff_factor_above_paper_threshold(self, fig16):
        assert fig16.data["min_factor"] >= 0.9

    def test_payoff_batchstrat_at_most_bruteforce(self, fig16):
        for panel in ("k", "m", "n_strategies"):
            data = fig16.data[panel]
            for batch, brute in zip(data["BatchStrat"], data["BruteForce"]):
                assert batch <= brute + 1e-9


class TestFig17:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig17(repetitions=2, seed=53, quick=True)

    def test_exact_matches_brute(self, result):
        assert result.data["exact_matches_brute"]

    def test_exact_never_worse_than_baselines(self, result):
        assert result.data["exact_never_worse"]

    def test_distance_grows_with_k(self, result):
        panel = result.data["varying k (no brute force), |S|=200"]
        values = panel["ADPaR-Exact"]
        assert values[-1] >= values[0]


class TestFig18:
    def test_batch_scalability_shapes(self):
        result = run_fig18_batch(seed=61)
        batch = result.data["batchstrat"]["seconds"]
        brute = result.data["bruteforce"]["seconds"]
        # BatchStrat stays sub-second across the m sweep.
        assert max(batch) < 1.0
        # BruteForce blows up by orders of magnitude over a tiny m range.
        assert brute[-1] > brute[0] * 10

    def test_adpar_scalability_seconds_scale(self):
        result = run_fig18_adpar(seed=67, quick=True)
        assert max(result.data["s_sweep"]["seconds"]) < 30
        assert max(result.data["k_sweep"]["seconds"]) < 30

"""Tests for the evaluation harness: metrics, trial stats, sweeps, tables."""

import numpy as np
import pytest

from repro import SquaredLoss
from repro.evaluation import (
    TrialStats,
    classification_accuracy,
    excess_empirical_risk,
    format_series_table,
    markdown_table,
    mean_squared_estimation_error,
    parameter_error,
    relative_risk_gap,
    run_grid,
    shape_summary,
    support_recovery,
)
from repro.rng import spawn_rngs


class TestMetrics:
    def test_excess_risk_zero_at_optimum(self, small_linear_data):
        X, y, w_star = small_linear_data
        assert excess_empirical_risk(SquaredLoss(), w_star, w_star, X, y) == 0.0

    def test_excess_risk_positive_away_from_optimum(self, small_linear_data):
        X, y, w_star = small_linear_data
        w = w_star + 0.5
        assert excess_empirical_risk(SquaredLoss(), w, w_star, X, y) > 0

    def test_parameter_error_norms(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        assert parameter_error(a, b) == 1.0
        assert parameter_error(a, b, order=1) == 1.0

    def test_support_recovery_perfect(self):
        w = np.array([0.0, 1.0, 0.0, -1.0])
        metrics = support_recovery(w, w)
        assert metrics["precision"] == 1.0 and metrics["recall"] == 1.0
        assert metrics["f1"] == 1.0

    def test_support_recovery_partial(self):
        truth = np.array([1.0, 1.0, 0.0, 0.0])
        est = np.array([1.0, 0.0, 1.0, 0.0])
        metrics = support_recovery(est, truth)
        assert metrics["precision"] == 0.5 and metrics["recall"] == 0.5

    def test_support_recovery_empty_estimate(self):
        metrics = support_recovery(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert metrics["precision"] == 0.0 and metrics["recall"] == 0.0
        assert metrics["f1"] == 0.0

    def test_classification_accuracy(self, rng):
        X = rng.normal(size=(500, 3))
        w = np.array([1.0, 0.0, 0.0])
        y = np.where(X @ w > 0, 1.0, -1.0)
        assert classification_accuracy(w, X, y) == 1.0
        assert classification_accuracy(-w, X, y) == 0.0

    def test_mse(self):
        assert mean_squared_estimation_error(np.array([1.0, 1.0]),
                                             np.zeros(2)) == 2.0

    def test_relative_risk_gap(self, small_linear_data):
        X, y, w_star = small_linear_data
        loss = SquaredLoss()
        gap = relative_risk_gap(loss, w_star + 0.1, w_star, X, y)
        assert gap > 0


class TestRunner:
    def test_trial_stats(self):
        stats = TrialStats.from_values([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.minimum == 1.0 and stats.maximum == 3.0
        assert stats.n_trials == 3

    def test_stderr_uses_sample_std(self):
        values = [1.0, 2.0, 3.0, 6.0]
        stats = TrialStats.from_values(values)
        sample_std = np.std(values, ddof=1)
        assert stats.stderr == pytest.approx(sample_std / np.sqrt(len(values)))
        # Equivalent closed form from the stored population std.
        assert stats.stderr == pytest.approx(stats.std / np.sqrt(len(values) - 1))

    def test_stderr_single_trial_is_zero(self):
        stats = TrialStats.from_values([4.2])
        assert stats.stderr == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TrialStats.from_values([])

    def test_runner_trials_independent(self):
        stats = TrialStats.from_values(
            [float(rng.normal()) for rng in spawn_rngs(0, 50)])
        assert stats.std > 0.4  # not identical draws


class TestSweep:
    def test_grid_shape(self):
        result = run_grid(lambda series, x, rng: float(x) * series,
                          "n", [1, 2, 4], "d", [1, 10], n_trials=2, seed=0)
        assert result.sweep_values == [1, 2, 4]
        assert set(result.series) == {1, 10}
        assert len(result.series[1]) == 3

    def test_means_and_decreasing(self):
        result = run_grid(lambda series, x, rng: 1.0 / x,
                          "n", [1, 2, 4], "d", [1], n_trials=2, seed=0)
        np.testing.assert_allclose(result.means(1), [1.0, 0.5, 0.25])
        assert result.is_decreasing(1)

    def test_not_decreasing(self):
        result = run_grid(lambda series, x, rng: float(x),
                          "n", [1, 2], "d", [1], n_trials=1, seed=0)
        assert not result.is_decreasing(1)

    def test_is_decreasing_relative_slack(self):
        # Curve rises 1.0 -> 1.1: a 10% rise, forgiven by slack >= 0.1.
        result = run_grid(lambda series, x, rng: 1.0 + 0.1 * (x - 1),
                          "n", [1, 2], "d", [1], n_trials=1, seed=0)
        assert not result.is_decreasing(1)
        assert not result.is_decreasing(1, slack=0.05)
        assert result.is_decreasing(1, slack=0.11)

    def test_is_decreasing_zero_baseline_uses_absolute_slack(self):
        # Starting at exactly 0.0, multiplicative slack would grant no
        # allowance at all; slack must act as an absolute tolerance.
        result = run_grid(lambda series, x, rng: 0.0 if x == 1 else 0.05,
                          "n", [1, 2], "d", [1], n_trials=1, seed=0)
        assert not result.is_decreasing(1)
        assert result.is_decreasing(1, slack=0.06)

    def test_is_decreasing_dust_baseline_treated_as_zero(self):
        # A baseline that is zero up to floating dust must behave like
        # the exact-zero case, not get a ~1e-17-sized allowance.
        result = run_grid(lambda series, x, rng: 5e-17 if x == 1 else 0.05,
                          "n", [1, 2], "d", [1], n_trials=1, seed=0)
        assert not result.is_decreasing(1)
        assert result.is_decreasing(1, slack=0.06)

    def test_is_decreasing_negative_baseline(self):
        # A negative start must still get a positive allowance (the old
        # multiplicative form *tightened* the check below zero).
        result = run_grid(lambda series, x, rng: -1.0 if x == 1 else -0.95,
                          "n", [1, 2], "d", [1], n_trials=1, seed=0)
        assert not result.is_decreasing(1)
        assert result.is_decreasing(1, slack=0.1)

    def test_format_table_contains_values(self):
        result = run_grid(lambda series, x, rng: 0.5,
                          "eps", [0.1, 1.0], "d", [50], n_trials=1, seed=0)
        table = result.format_table(title="demo")
        assert "demo" in table and "eps" in table and "0.50000" in table


class TestTables:
    def test_format_series_table(self):
        table = format_series_table("n", [10, 20],
                                    {"private": [0.5, 0.25],
                                     "non-private": [0.1, 0.05]})
        assert "private" in table
        assert "0.25000" in table

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            format_series_table("n", [1, 2], {"a": [1.0]})

    def test_shape_summary_direction(self):
        text = shape_summary([1, 8], [0.4, 0.1])
        assert "down" in text

    def test_markdown_table(self):
        md = markdown_table(["a", "b"], [[1, 2], [3, 4]])
        assert md.startswith("| a | b |")
        assert "| 3 | 4 |" in md

"""Tests for Algorithm 2 — Heavy-tailed Private LASSO."""

import math

import numpy as np
import pytest

from repro import (
    DistributionSpec,
    HeavyTailedPrivateLasso,
    L1Ball,
    SquaredLoss,
    l1_ball_truth,
    make_linear_data,
)
from repro.core import classic_fw_steps
from repro.estimators.truncation import shrink_dataset
from repro.privacy import ExponentialMechanism


def _data(rng, n=4000, d=8, sigma=0.6):
    w_star = l1_ball_truth(d, rng)
    return make_linear_data(n, w_star,
                            DistributionSpec("lognormal", {"sigma": sigma}),
                            DistributionSpec("gaussian", {"scale": 0.1}),
                            rng=rng)


class TestConfiguration:
    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            HeavyTailedPrivateLasso(L1Ball(4), epsilon=0.0, delta=1e-5)
        with pytest.raises(ValueError):
            HeavyTailedPrivateLasso(L1Ball(4), epsilon=1.0, delta=0.0)

    @pytest.mark.parametrize("delta", [1.0, 2.0, -1e-5, math.nan])
    def test_delta_outside_unit_interval_rejected_at_construction(self, delta):
        # log(1/delta) is undefined or zero there; the solver used to
        # accept such a delta and crash inside fit.
        with pytest.raises(ValueError, match="delta"):
            HeavyTailedPrivateLasso(L1Ball(5), epsilon=1.0, delta=delta)

    def test_schedule(self):
        solver = HeavyTailedPrivateLasso(L1Ball(4), epsilon=1.0, delta=1e-5)
        sched = solver.resolve_schedule(10_000)
        assert sched.n_iterations == int(10_000 ** 0.4)
        assert sched.threshold > 0

    def test_per_iteration_epsilon_formula(self):
        solver = HeavyTailedPrivateLasso(L1Ball(4), epsilon=1.0, delta=1e-5)
        eps_step = solver.per_iteration_epsilon(25)
        assert eps_step == pytest.approx(
            1.0 / (2 * math.sqrt(2 * 25 * math.log(1e5))))

    def test_dimension_mismatch(self, rng):
        solver = HeavyTailedPrivateLasso(L1Ball(3), epsilon=1.0, delta=1e-5)
        with pytest.raises(ValueError):
            solver.fit(rng.normal(size=(20, 5)), rng.normal(size=20))


class TestPrivacyBookkeeping:
    def test_advertised_budget(self, rng):
        data = _data(rng, n=800, d=4)
        solver = HeavyTailedPrivateLasso(L1Ball(4), epsilon=0.7, delta=1e-6)
        result = solver.fit(data.features, data.labels, rng=rng)
        assert result.advertised_budget.epsilon == 0.7
        assert result.advertised_budget.delta == 1e-6
        assert result.privacy_spent.epsilon == pytest.approx(0.7)

    def test_metadata_reports_step_budget(self, rng):
        data = _data(rng, n=800, d=4)
        solver = HeavyTailedPrivateLasso(L1Ball(4), epsilon=1.0, delta=1e-5)
        result = solver.fit(data.features, data.labels, rng=rng)
        T = result.n_iterations
        assert result.metadata["per_iteration_epsilon"] == pytest.approx(
            solver.per_iteration_epsilon(T))


class TestOptimization:
    def test_feasible_iterates(self, rng):
        data = _data(rng, n=2000, d=6)
        ball = L1Ball(6)
        solver = HeavyTailedPrivateLasso(ball, epsilon=1.0, delta=1e-5,
                                         record_history=True)
        result = solver.fit(data.features, data.labels, rng=rng)
        for w in result.iterates:
            assert ball.contains(w, tol=1e-9)

    def test_risk_decreases(self, rng):
        data = _data(rng, n=10_000, d=8)
        solver = HeavyTailedPrivateLasso(L1Ball(8), epsilon=2.0, delta=1e-5,
                                         record_history=True)
        result = solver.fit(data.features, data.labels, rng=rng)
        assert result.risks[-1] < result.risks[0]

    def test_threshold_actually_shrinks_data(self, rng):
        """With a tiny K the effective gradient signal collapses —
        check the fitted model is no better than a random vertex walk."""
        data = _data(rng, n=2000, d=6)
        solver = HeavyTailedPrivateLasso(L1Ball(6), epsilon=1.0, delta=1e-5,
                                         threshold=1e-6, n_iterations=5)
        result = solver.fit(data.features, data.labels, rng=rng)
        assert np.all(np.isfinite(result.w))

    def test_explicit_threshold_respected(self, rng):
        data = _data(rng, n=500, d=4)
        solver = HeavyTailedPrivateLasso(L1Ball(4), epsilon=1.0, delta=1e-5,
                                         threshold=3.0, n_iterations=4)
        result = solver.fit(data.features, data.labels, rng=rng)
        assert result.metadata["threshold"] == 3.0
        assert result.n_iterations == 4

    def test_robust_to_gross_outliers(self, rng):
        data = _data(rng, n=4000, d=6)
        X, y = data.features.copy(), data.labels.copy()
        X[0] = 1e12
        y[0] = -1e12
        loss = SquaredLoss()
        result = HeavyTailedPrivateLasso(L1Ball(6), epsilon=2.0, delta=1e-5).fit(
            X, y, rng=rng)
        assert np.all(np.isfinite(result.w))
        clean_risk = loss.value(result.w, data.features[1:], data.labels[1:])
        zero_risk = loss.value(np.zeros(6), data.features[1:], data.labels[1:])
        assert clean_risk <= zero_risk * 1.2

    def test_reproducible(self, rng):
        data = _data(rng, n=800, d=4)
        solver = HeavyTailedPrivateLasso(L1Ball(4), epsilon=1.0, delta=1e-5)
        a = solver.fit(data.features, data.labels, rng=np.random.default_rng(3))
        b = solver.fit(data.features, data.labels, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.w, b.w)

    def test_beats_trivial_predictor_on_average(self, rng):
        loss = SquaredLoss()
        wins = 0
        for seed in range(5):
            trial = np.random.default_rng(seed)
            data = _data(trial, n=24_000, d=8)
            result = HeavyTailedPrivateLasso(L1Ball(8), epsilon=2.0,
                                             delta=1e-5).fit(
                data.features, data.labels, rng=trial)
            if (loss.value(result.w, data.features, data.labels)
                    < loss.value(np.zeros(8), data.features, data.labels)):
                wins += 1
        assert wins >= 4


def _residual_form_fit(solver, X, y, rng):
    """Algorithm 2 with the gradient as two passes over the shrunken data.

    ``g̃ = 2 X̃ᵀ(X̃ w − ỹ) / n`` per iteration: the form the solver's
    Gram-form ``2 (G w − c) / n`` replaced.
    """
    n = X.shape[0]
    schedule = solver.resolve_schedule(n)
    T, K = schedule.n_iterations, schedule.threshold
    X_shrunk, y_shrunk = shrink_dataset(X, y, K)
    ball = solver.polytope
    mechanism = ExponentialMechanism(
        epsilon=solver.per_iteration_epsilon(T),
        sensitivity=4.0 * ball.l1_diameter() * K**2 / n)
    steps = classic_fw_steps(T)
    w = ball.initial_point()
    selected = []
    for t in range(T):
        g_tilde = 2.0 * (X_shrunk.T @ (X_shrunk @ w - y_shrunk)) / n
        index = mechanism.select(ball.vertex_scores(g_tilde), rng=rng)
        selected.append(index)
        w = (1.0 - steps[t]) * w + steps[t] * ball.vertex(index)
    return w, selected


class TestGramForm:
    @pytest.mark.parametrize("n,d", [(60, 3), (400, 8), (2500, 20),
                                     (900, 40)])
    @pytest.mark.parametrize("epsilon", [0.5, 2.0, 8.0])
    def test_matches_residual_form_oracle(self, n, d, epsilon):
        for seed in range(6):
            data = _data(np.random.default_rng(seed), n=n, d=d, sigma=0.9)
            solver = HeavyTailedPrivateLasso(L1Ball(d), epsilon=epsilon,
                                             delta=1e-5)
            result = solver.fit(data.features, data.labels,
                                rng=np.random.default_rng(100 + seed))
            w, selected = _residual_form_fit(
                solver, data.features, data.labels,
                np.random.default_rng(100 + seed))
            assert result.metadata["selected_vertices"] == selected
            np.testing.assert_array_equal(result.w, w)

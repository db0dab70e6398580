"""Tests for the baseline solvers."""

import numpy as np
import pytest

from repro import L1Ball, SquaredLoss
from repro.baselines import (
    DPSGD,
    FrankWolfe,
    GradientDescent,
    IterativeHardThresholding,
    RegularDPFrankWolfe,
)
from repro.geometry import project_l1_ball
from repro.losses import LogisticLoss


class TestFrankWolfe:
    def test_converges_on_quadratic(self, small_linear_data):
        X, y, w_star = small_linear_data
        loss = SquaredLoss()
        fw = FrankWolfe(loss, L1Ball(X.shape[1]), n_iterations=200)
        w = fw.fit(X, y)
        assert loss.value(w, X, y) <= loss.value(w_star, X, y) + 0.01

    def test_history(self, small_linear_data):
        X, y, _ = small_linear_data
        fw = FrankWolfe(SquaredLoss(), L1Ball(X.shape[1]), n_iterations=10,
                        record_history=True)
        fw.fit(X, y)
        assert len(fw.iterates_) == 11
        assert fw.risks_[-1] <= fw.risks_[0]

    def test_stays_feasible(self, small_linear_data):
        X, y, _ = small_linear_data
        ball = L1Ball(X.shape[1])
        w = FrankWolfe(SquaredLoss(), ball, n_iterations=30).fit(X, y)
        assert ball.contains(w, tol=1e-9)

    def test_risk_monotone_along_path(self, small_linear_data):
        X, y, _ = small_linear_data
        fw = FrankWolfe(SquaredLoss(), L1Ball(X.shape[1]), n_iterations=50,
                        record_history=True)
        fw.fit(X, y)
        # FW is not strictly monotone, but the trend must be downward.
        assert fw.risks_[-1] < fw.risks_[0]


class TestGradientDescent:
    def test_solves_least_squares(self, small_linear_data):
        X, y, w_star = small_linear_data
        gd = GradientDescent(SquaredLoss(), learning_rate=0.2, n_iterations=500)
        w = gd.fit(X, y)
        np.testing.assert_allclose(w, np.linalg.lstsq(X, y, rcond=None)[0],
                                   atol=1e-3)

    def test_projection_respected(self, small_linear_data):
        X, y, _ = small_linear_data
        gd = GradientDescent(SquaredLoss(), learning_rate=0.2, n_iterations=100,
                             projection=lambda w: project_l1_ball(w, 0.25))
        w = gd.fit(X, y)
        assert np.abs(w).sum() <= 0.25 + 1e-9

    def test_early_stop(self, small_linear_data):
        X, y, _ = small_linear_data
        gd = GradientDescent(SquaredLoss(), learning_rate=0.2,
                             n_iterations=10_000, tol=1e-8,
                             record_history=True)
        gd.fit(X, y)
        assert len(gd.iterates_) < 10_000


class TestIHT:
    def test_recovers_sparse_signal(self, rng):
        n, d, s = 2000, 50, 4
        w_star = np.zeros(d)
        w_star[:s] = [0.5, -0.4, 0.3, 0.2]
        X = rng.normal(size=(n, d))
        y = X @ w_star + 0.01 * rng.normal(size=n)
        iht = IterativeHardThresholding(SquaredLoss(), sparsity=s,
                                        learning_rate=0.2, n_iterations=200)
        w = iht.fit(X, y)
        assert set(np.nonzero(w)[0]) == set(range(s))
        np.testing.assert_allclose(w[:s], w_star[:s], atol=0.05)

    def test_output_sparsity(self, rng):
        X = rng.normal(size=(100, 20))
        y = rng.normal(size=100)
        w = IterativeHardThresholding(SquaredLoss(), sparsity=3,
                                      learning_rate=0.1).fit(X, y)
        assert np.count_nonzero(w) <= 3

    def test_projection_radius(self, rng):
        X = rng.normal(size=(100, 10))
        y = 100 * rng.normal(size=100)
        iht = IterativeHardThresholding(SquaredLoss(), sparsity=3,
                                        learning_rate=0.1, project_radius=1.0)
        w = iht.fit(X, y)
        assert np.linalg.norm(w) <= 1.0 + 1e-9


class TestRegularDPFW:
    def test_budget_and_run(self, small_linear_data, rng):
        X, y, _ = small_linear_data
        solver = RegularDPFrankWolfe(SquaredLoss(), L1Ball(X.shape[1]),
                                     epsilon=1.0, delta=1e-5,
                                     lipschitz_bound=5.0, n_iterations=10)
        result = solver.fit(X, y, rng=rng)
        assert result.advertised_budget.delta == 1e-5
        assert np.all(np.isfinite(result.w))

    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0])
    def test_delta_outside_unit_interval_rejected_at_construction(self, delta):
        # log(1/delta) in the per-step budget is undefined or zero there.
        with pytest.raises(ValueError, match="delta"):
            RegularDPFrankWolfe(SquaredLoss(), L1Ball(5), epsilon=1.0,
                                delta=delta)

    def test_clipping_bounds_influence(self, rng):
        """A gross outlier cannot move the clipped mean gradient much."""
        X = rng.normal(size=(500, 4))
        y = rng.normal(size=500)
        X2, y2 = X.copy(), y.copy()
        X2[0], y2[0] = 1e9, -1e9
        solver = RegularDPFrankWolfe(SquaredLoss(), L1Ball(4), epsilon=1e6,
                                     delta=1e-5, lipschitz_bound=1.0,
                                     n_iterations=5)
        a = solver.fit(X, y, rng=np.random.default_rng(0))
        b = solver.fit(X2, y2, rng=np.random.default_rng(0))
        # outputs may differ but must both be finite and feasible
        assert np.all(np.isfinite(a.w)) and np.all(np.isfinite(b.w))


class TestDPSGD:
    def test_runs_and_accounts(self, small_linear_data, rng):
        X, y, _ = small_linear_data
        solver = DPSGD(SquaredLoss(), epsilon=1.0, delta=1e-5, clip_norm=1.0,
                       learning_rate=0.05, n_iterations=20)
        result = solver.fit(X, y, rng=rng)
        assert result.privacy_spent.epsilon == pytest.approx(1.0)
        assert np.all(np.isfinite(result.w))

    def test_noise_multiplier_decreases_with_epsilon(self):
        lo = DPSGD(SquaredLoss(), epsilon=0.5, delta=1e-5).noise_multiplier()
        hi = DPSGD(SquaredLoss(), epsilon=4.0, delta=1e-5).noise_multiplier()
        assert hi < lo

    def test_projection(self, small_linear_data, rng):
        X, y, _ = small_linear_data
        solver = DPSGD(SquaredLoss(), epsilon=2.0, delta=1e-5,
                       learning_rate=0.05, n_iterations=10,
                       projection=lambda w: project_l1_ball(w, 1.0))
        result = solver.fit(X, y, rng=rng)
        assert np.abs(result.w).sum() <= 1.0 + 1e-9

    def test_minibatch(self, small_linear_data, rng):
        X, y, _ = small_linear_data
        solver = DPSGD(SquaredLoss(), epsilon=2.0, delta=1e-5, batch_size=32,
                       n_iterations=15)
        result = solver.fit(X, y, rng=rng)
        assert np.all(np.isfinite(result.w))

    def test_logistic(self, rng):
        X = rng.normal(size=(300, 5))
        y = rng.choice([-1.0, 1.0], size=300)
        solver = DPSGD(LogisticLoss(), epsilon=2.0, delta=1e-5, n_iterations=10)
        result = solver.fit(X, y, rng=rng)
        assert np.all(np.isfinite(result.w))

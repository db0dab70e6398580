"""Tests for the loss substrate: values, gradients, smoothness metadata."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.losses import (
    BiweightLoss,
    HuberLoss,
    L2Regularized,
    LogisticLoss,
    SquaredLoss,
    finite_difference_gradient,
    sigmoid,
)

ALL_REGRESSION_LOSSES = [SquaredLoss(), HuberLoss(1.0), BiweightLoss(2.0)]


def _make_regression(rng, n=60, d=4):
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    w = rng.normal(size=d) * 0.3
    return w, X, y


def _make_classification(rng, n=60, d=4):
    X = rng.normal(size=(n, d))
    y = rng.choice([-1.0, 1.0], size=n)
    w = rng.normal(size=d) * 0.3
    return w, X, y


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("loss", ALL_REGRESSION_LOSSES,
                             ids=lambda l: l.name)
    def test_regression_losses(self, loss, rng):
        w, X, y = _make_regression(rng)
        analytic = loss.gradient(w, X, y)
        numeric = finite_difference_gradient(loss, w, X, y)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_logistic(self, rng):
        loss = LogisticLoss()
        w, X, y = _make_classification(rng)
        analytic = loss.gradient(w, X, y)
        numeric = finite_difference_gradient(loss, w, X, y)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_regularized(self, rng):
        loss = L2Regularized(SquaredLoss(), lam=0.3)
        w, X, y = _make_regression(rng)
        analytic = loss.gradient(w, X, y)
        numeric = finite_difference_gradient(loss, w, X, y)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)


class TestPerSampleConsistency:
    @pytest.mark.parametrize("loss", ALL_REGRESSION_LOSSES + [LogisticLoss()],
                             ids=lambda l: l.name)
    def test_mean_of_per_sample_equals_batch(self, loss, rng):
        if isinstance(loss, LogisticLoss):
            w, X, y = _make_classification(rng)
        else:
            w, X, y = _make_regression(rng)
        per_sample = loss.per_sample_gradients(w, X, y)
        np.testing.assert_allclose(per_sample.mean(axis=0),
                                   loss.gradient(w, X, y), atol=1e-12)
        assert loss.value(w, X, y) == pytest.approx(
            float(np.mean(loss.per_sample_values(w, X, y))))

    def test_per_sample_gradient_shape(self, rng):
        loss = SquaredLoss()
        w, X, y = _make_regression(rng, n=17, d=5)
        assert loss.per_sample_gradients(w, X, y).shape == (17, 5)


class TestSquaredLoss:
    def test_zero_at_perfect_fit(self, rng):
        loss = SquaredLoss()
        X = rng.normal(size=(30, 3))
        w = np.array([1.0, -1.0, 0.5])
        assert loss.value(w, X, X @ w) == pytest.approx(0.0, abs=1e-16)

    def test_smoothness_is_hessian_norm(self, rng):
        loss = SquaredLoss()
        X = rng.normal(size=(500, 4))
        hessian = 2.0 * X.T @ X / X.shape[0]
        assert loss.smoothness(X) == pytest.approx(
            float(np.linalg.eigvalsh(hessian)[-1]))

    def test_curvature_range_ordering(self, rng):
        mu, gamma = SquaredLoss().curvature_range(rng.normal(size=(200, 3)))
        assert 0 < mu <= gamma


class TestLogisticLoss:
    def test_sigmoid_stability(self):
        assert sigmoid(np.array(800.0)) == pytest.approx(1.0)
        assert sigmoid(np.array(-800.0)) == pytest.approx(0.0)

    @given(st.floats(-30, 30))
    @settings(max_examples=50)
    def test_sigmoid_symmetry(self, t):
        s = float(sigmoid(np.array(t)))
        assert s + float(sigmoid(np.array(-t))) == pytest.approx(1.0)

    def test_rejects_non_pm1_labels(self, rng):
        loss = LogisticLoss()
        X = rng.normal(size=(5, 2))
        with pytest.raises(ValueError):
            loss.value(np.zeros(2), X, np.array([0, 1, 1, 0, 1.0]))

    def test_value_at_origin_is_log2(self, rng):
        loss = LogisticLoss()
        X = rng.normal(size=(50, 3))
        y = rng.choice([-1.0, 1.0], size=50)
        assert loss.value(np.zeros(3), X, y) == pytest.approx(np.log(2.0))

    def test_no_overflow_on_extreme_margins(self):
        loss = LogisticLoss()
        X = np.array([[1e6], [-1e6]])
        y = np.array([1.0, 1.0])
        vals = loss.per_sample_values(np.array([1.0]), X, y)
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(0.0)

    def test_gradient_bounded_by_feature(self, rng):
        """|psi'| <= 1 so per-sample gradient <= |x| entrywise."""
        loss = LogisticLoss()
        w, X, y = _make_classification(rng)
        grads = loss.per_sample_gradients(w, X, y)
        assert np.all(np.abs(grads) <= np.abs(X) + 1e-12)


class TestBiweightLoss:
    def test_saturates_beyond_c(self):
        loss = BiweightLoss(c=1.0)
        assert float(loss.psi(np.array(5.0))) == pytest.approx(1.0 / 6.0)
        assert float(loss.psi_derivative(np.array(5.0))) == 0.0

    def test_derivative_is_odd(self):
        loss = BiweightLoss(c=2.0)
        t = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(loss.psi_derivative(t),
                                   -loss.psi_derivative(-t), atol=1e-15)

    def test_derivative_bound(self):
        loss = BiweightLoss(c=1.0)
        t = np.linspace(-2, 2, 2001)
        assert np.max(np.abs(loss.psi_derivative(t))) <= loss.derivative_bound() + 1e-9

    def test_psi_derivative_matches_psi(self):
        loss = BiweightLoss(c=1.5)
        t = np.linspace(-1.2, 1.2, 15)
        h = 1e-6
        numeric = (loss.psi(t + h) - loss.psi(t - h)) / (2 * h)
        np.testing.assert_allclose(loss.psi_derivative(t), numeric, atol=1e-6)


class TestHuberLoss:
    def test_quadratic_inside(self):
        loss = HuberLoss(delta=1.0)
        np.testing.assert_allclose(loss.link(np.array([0.5]), np.array([0.0])),
                                   [0.125])

    def test_linear_outside(self):
        loss = HuberLoss(delta=1.0)
        np.testing.assert_allclose(loss.link(np.array([3.0]), np.array([0.0])),
                                   [2.5])

    def test_derivative_clipped(self):
        loss = HuberLoss(delta=2.0)
        d = loss.link_derivative(np.array([-10.0, 0.5, 10.0]), np.zeros(3))
        np.testing.assert_allclose(d, [-2.0, 0.5, 2.0])


class TestL2Regularized:
    def test_penalty_added(self, rng):
        base = SquaredLoss()
        reg = L2Regularized(base, lam=2.0)
        w, X, y = _make_regression(rng)
        assert reg.value(w, X, y) == pytest.approx(
            base.value(w, X, y) + float(w @ w))

    def test_zero_lambda_is_base(self, rng):
        base = SquaredLoss()
        reg = L2Regularized(base, lam=0.0)
        w, X, y = _make_regression(rng)
        assert reg.value(w, X, y) == pytest.approx(base.value(w, X, y))

    def test_per_sample_gradients_include_ridge(self, rng):
        reg = L2Regularized(SquaredLoss(), lam=1.0)
        w, X, y = _make_regression(rng)
        per_sample = reg.per_sample_gradients(w, X, y)
        np.testing.assert_allclose(per_sample.mean(axis=0),
                                   reg.gradient(w, X, y), atol=1e-12)

    def test_name_mentions_base(self):
        assert "squared" in L2Regularized(SquaredLoss(), 0.1).name


class TestFiniteDifference:
    def test_matches_per_coordinate_loop(self):
        rng = np.random.default_rng(6)
        X = rng.lognormal(size=(25, 4))
        y = rng.normal(size=25)
        w = rng.normal(size=4)
        loss = SquaredLoss()
        step = 1e-6
        old = np.zeros(4)
        for j in range(4):  # the per-coordinate loop
            bump = np.zeros(4)
            bump[j] = step
            old[j] = (loss.value(w + bump, X, y) -
                      loss.value(w - bump, X, y)) / (2 * step)
        assert np.array_equal(finite_difference_gradient(loss, w, X, y), old)

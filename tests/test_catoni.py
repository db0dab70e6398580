"""Tests for the smoothed Catoni estimator — the paper's statistical engine.

Includes the property-based checks that pin the implementation to the
math: the closed-form smoothed influence must agree with quadrature of
``E[phi(a + b xi)]`` everywhere, stay inside ``[-2sqrt(2)/3, 2sqrt(2)/3]``
and reduce to ``phi`` as the smoothing noise vanishes.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr

from repro.estimators import (
    PHI_BOUND,
    PHI_KNEE,
    CatoniEstimator,
    correction_term,
    optimal_scale,
    phi,
    smoothed_phi,
    smoothed_phi_quadrature,
)
from repro.estimators.catoni import _UNDERFLOW_SIGMAS


class TestPhi:
    def test_cubic_inside_knee(self):
        u = np.array([-1.0, 0.0, 0.5, 1.0])
        np.testing.assert_allclose(phi(u), u - u**3 / 6.0)

    def test_saturates_outside_knee(self):
        assert phi(np.array(10.0)) == pytest.approx(PHI_BOUND)
        assert phi(np.array(-10.0)) == pytest.approx(-PHI_BOUND)

    def test_continuous_at_knee(self):
        inner = float(phi(np.array(PHI_KNEE - 1e-12)))
        outer = float(phi(np.array(PHI_KNEE + 1e-12)))
        assert inner == pytest.approx(outer, abs=1e-9)
        assert outer == pytest.approx(PHI_BOUND)

    def test_odd_function(self):
        u = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(phi(u), -phi(-u), atol=1e-15)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_bounded_everywhere(self, u):
        assert abs(float(phi(np.array(u)))) <= PHI_BOUND + 1e-12

    @given(st.floats(min_value=-10, max_value=10))
    def test_catoni_log_sandwich(self, u):
        """phi satisfies -log(1 - u + u^2/2) <= phi(u) <= log(1 + u + u^2/2)."""
        val = float(phi(np.array(u)))
        upper = math.log(1.0 + u + u * u / 2.0)
        lower = -math.log(1.0 - u + u * u / 2.0)
        assert lower - 1e-9 <= val <= upper + 1e-9


class TestSmoothedPhi:
    @given(
        a=st.floats(min_value=-8, max_value=8),
        b=st.floats(min_value=1e-6, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_quadrature(self, a, b):
        closed = float(smoothed_phi(np.array(a), np.array(b)))
        reference = smoothed_phi_quadrature(a, b)
        assert closed == pytest.approx(reference, abs=1e-6)

    @given(
        a=st.floats(min_value=-100, max_value=100),
        b=st.floats(min_value=0, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, a, b):
        assert abs(float(smoothed_phi(np.array(a), np.array(b)))) <= PHI_BOUND

    def test_degenerate_b_equals_phi(self):
        a = np.linspace(-3, 3, 17)
        np.testing.assert_allclose(smoothed_phi(a, np.zeros_like(a)), phi(a))

    def test_small_b_approaches_phi(self):
        a = np.array([0.5, 1.0, -2.5])
        out = smoothed_phi(a, np.full_like(a, 1e-6))
        np.testing.assert_allclose(out, phi(a), atol=1e-5)

    def test_odd_in_a(self):
        a = np.linspace(0.1, 4, 20)
        b = np.full_like(a, 0.7)
        np.testing.assert_allclose(smoothed_phi(a, b), -smoothed_phi(-a, b),
                                   atol=1e-12)

    def test_rejects_negative_b(self):
        with pytest.raises(ValueError):
            smoothed_phi(np.array(1.0), np.array(-0.5))

    def test_broadcasting(self):
        out = smoothed_phi(np.ones((2, 3)), np.array(0.5))
        assert out.shape == (2, 3)

    def test_correction_vanishes_for_central_a_small_b(self):
        # With a well inside the knee and tiny noise, phi never saturates,
        # so the correction is negligible.
        c = float(correction_term(np.array(0.1), np.array(0.01)))
        assert abs(c) < 1e-10


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _reference(a, b):
    """``smoothed_phi`` with the correction added on every entry."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    full = a * (1.0 - b**2 / 2.0) - a**3 / 6.0 + correction_term(a, b)
    return np.clip(full, -PHI_BOUND, PHI_BOUND)


_A = st.floats(min_value=-60, max_value=60)
_B = st.floats(min_value=1e-12, max_value=40)


class TestKernelParity:
    """Skipping the correction where it underflows changes no bit."""

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=_A),
        hnp.arrays(np.float64, n, elements=_B))))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_full_correction(self, ab):
        a, b = ab
        np.testing.assert_array_equal(_bits(smoothed_phi(a, b)),
                                      _bits(_reference(a, b)))

    @given(a=_A, b=_B)
    @example(a=54.14064221508421, b=38.58482788585614)
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_zero_dim(self, a, b):
        # The kernel evaluates the correction on the 1-element slice of
        # entries near the knee, so the reference gets a 1-element array
        # too: numpy's 0-d and 1-d ufunc paths may differ in the last ulp,
        # which shows where the polynomial and the correction cancel
        # (the pinned example).
        out = smoothed_phi(np.array(a), np.array(b))
        expected = _reference(np.atleast_1d(a), np.atleast_1d(b))[0]
        assert _bits(out) == _bits(expected)

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=_A),
        hnp.arrays(np.float64, n, elements=st.one_of(
            _B, st.just(0.0), st.floats(min_value=0.0, max_value=9e-13))))))
    @settings(max_examples=100, deadline=None)
    def test_mixed_degenerate_entries(self, ab):
        a, b = ab
        out = smoothed_phi(a, b)
        active = b >= 1e-12
        np.testing.assert_array_equal(_bits(out[active]),
                                      _bits(_reference(a[active], b[active])))
        np.testing.assert_array_equal(_bits(out[~active]),
                                      _bits(phi(a[~active])))

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=st.floats(1e-9, PHI_KNEE / 39)),
        hnp.arrays(np.float64, n, elements=st.floats(-1e-12, 1e-12)),
        hnp.arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))))
    @settings(max_examples=100, deadline=None)
    def test_straddling_the_cutoff(self, bds):
        b, delta, sign = bds
        a = sign * (PHI_KNEE - 39.0 * b) * (1.0 + delta)
        np.testing.assert_array_equal(_bits(smoothed_phi(a, b)),
                                      _bits(_reference(a, b)))

    def test_broadcast_and_strided_inputs(self, rng):
        x = rng.standard_cauchy(size=(60, 9)) * 3.0
        for a, b in ((x, np.abs(x) / 2.0), (x.T, np.abs(x.T)),
                     (x[::2, ::3], np.array(0.02)), (x[:, :1], x[:1, :] ** 2)):
            a_full, b_full = np.broadcast_arrays(a, b)
            np.testing.assert_array_equal(_bits(smoothed_phi(a, b)),
                                          _bits(_reference(a_full, b_full)))

    def test_cutoff_is_where_the_tails_underflow(self):
        assert _UNDERFLOW_SIGMAS == 39.0
        assert float(ndtr(-39.0)) == 0.0
        assert math.exp(-0.5 * 39.0**2) == 0.0
        assert math.exp(-0.5 * 38.6**2) > 0.0  # subnormal: 38.6 is too low

    @given(b=st.floats(min_value=1e-12, max_value=PHI_KNEE / _UNDERFLOW_SIGMAS),
           frac=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_correction_is_zero_past_cutoff(self, b, frac):
        a = frac * (PHI_KNEE - _UNDERFLOW_SIGMAS * b)
        assume(PHI_KNEE - abs(a) >= _UNDERFLOW_SIGMAS * b)
        assert float(correction_term(np.array(a), np.array(b))) == 0.0


class TestCatoniEstimator:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CatoniEstimator(scale=0.0)
        with pytest.raises(ValueError):
            CatoniEstimator(scale=1.0, beta=0.0)

    def test_estimates_gaussian_mean(self, rng):
        est = CatoniEstimator(scale=20.0)
        x = rng.normal(loc=3.0, scale=1.0, size=20_000)
        assert est.estimate(x) == pytest.approx(3.0, abs=0.1)

    def test_robust_to_one_huge_outlier(self, rng):
        est = CatoniEstimator(scale=10.0)
        x = rng.normal(loc=1.0, size=2000)
        x[0] = 1e9
        # Empirical mean is destroyed (~5e5); Catoni moves by <= s*bound/n.
        assert abs(np.mean(x)) > 1e5
        assert est.estimate(x) == pytest.approx(1.0, abs=0.2)

    def test_influence_bound(self, rng):
        est = CatoniEstimator(scale=2.0)
        x = rng.standard_cauchy(size=5000) * 100
        influences = est.influence(x)
        assert np.all(np.abs(influences) <= 2.0 * PHI_BOUND + 1e-12)

    def test_sensitivity_formula(self):
        est = CatoniEstimator(scale=3.0)
        assert est.sensitivity(100) == pytest.approx(4 * math.sqrt(2) * 3.0 / 300)

    def test_sensitivity_realized(self, rng):
        """Replacing one sample moves the estimate by at most the sensitivity."""
        est = CatoniEstimator(scale=1.5)
        x = rng.normal(size=200)
        base = est.estimate(x)
        worst = 0.0
        for replacement in (1e12, -1e12, 0.0):
            x2 = x.copy()
            x2[0] = replacement
            worst = max(worst, abs(est.estimate(x2) - base))
        assert worst <= est.sensitivity(200) + 1e-12

    def test_sensitivity_realized_columns(self, rng):
        """The same bound holds coordinate-wise for ``estimate_columns``."""
        est = CatoniEstimator(scale=1.5)
        n, d = 200, 6
        X = rng.standard_t(df=3, size=(n, d))
        base = est.estimate_columns(X)
        bound = est.sensitivity(n) + 1e-12
        rows = [np.full(d, 1e12), np.full(d, -1e12), np.zeros(d),
                np.array([1e12, -1e12, 0.0, -1e12, 1e12, 0.0])]
        for row in rows:
            for i in (0, n - 1):
                X2 = X.copy()
                X2[i] = row
                moved = np.abs(est.estimate_columns(X2) - base)
                assert np.all(moved <= bound), (row, i, moved.max())

    def test_estimate_columns_matches_scalar(self, rng):
        est = CatoniEstimator(scale=5.0)
        X = rng.normal(size=(300, 4))
        cols = est.estimate_columns(X)
        expected = [est.estimate(X[:, j]) for j in range(4)]
        np.testing.assert_allclose(cols, expected)

    def test_estimate_rejects_bad_shapes(self):
        est = CatoniEstimator(scale=1.0)
        with pytest.raises(ValueError):
            est.estimate(np.ones((2, 2)))
        with pytest.raises(ValueError):
            est.estimate_columns(np.ones(3))

    def test_error_bound_holds_empirically(self, rng):
        """Lemma 4's deviation bound should hold for lognormal data."""
        tau = float(np.exp(2 * 0.6**2))  # second moment of Lognormal(0, .6)
        n = 4000
        failures = 0
        trials = 40
        for _ in range(trials):
            x = rng.lognormal(mean=0.0, sigma=0.6, size=n)
            scale = optimal_scale(n, tau, 0.05)
            est = CatoniEstimator(scale=scale)
            bound = est.error_bound(n, tau, 0.05)
            truth = float(np.exp(0.6**2 / 2))
            if abs(est.estimate(x) - truth) > bound:
                failures += 1
        assert failures <= 0.05 * trials + 2

    def test_noisy_estimate_mean_converges_to_smoothed(self, rng):
        """The Monte-Carlo eq.(3) estimator averages to the eq.(4) closed form."""
        est = CatoniEstimator(scale=2.0, beta=1.0)
        x = rng.normal(loc=1.0, size=50)
        smoothed = est.estimate(x)
        draws = [est.noisy_estimate(x, rng.normal(scale=1.0, size=x.size))
                 for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(smoothed, abs=0.02)

    def test_noisy_estimate_shape_mismatch(self, rng):
        est = CatoniEstimator(scale=1.0)
        with pytest.raises(ValueError):
            est.noisy_estimate(np.ones(3), np.ones(4))


class TestOptimalScale:
    def test_balances_bound(self):
        """The optimal scale should (locally) minimise the Lemma 4 bound."""
        n, tau, zeta = 1000, 2.0, 0.05
        s_opt = optimal_scale(n, tau, zeta)
        best = CatoniEstimator(scale=s_opt).error_bound(n, tau, zeta)
        for factor in (0.5, 0.9, 1.1, 2.0):
            other = CatoniEstimator(scale=s_opt * factor).error_bound(n, tau, zeta)
            assert best <= other + 1e-12

    def test_grows_with_n(self):
        assert optimal_scale(10_000, 1.0, 0.05) > optimal_scale(100, 1.0, 0.05)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            optimal_scale(100, -1.0, 0.05)
        with pytest.raises(ValueError):
            optimal_scale(100, 1.0, 0.0)

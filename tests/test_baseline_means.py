"""Tests for the non-private robust mean baselines."""

import numpy as np
import pytest

from repro.estimators import (
    coordinatewise,
    empirical_mean,
    median_of_means,
    trimmed_mean,
)


class TestEmpiricalMean:
    def test_basic(self):
        assert empirical_mean(np.array([1.0, 2.0, 3.0])) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(Exception):
            empirical_mean(np.array([]))


class TestTrimmedMean:
    def test_no_trim_is_mean(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert trimmed_mean(x, 0.0) == pytest.approx(2.5)

    def test_trims_outliers(self):
        x = np.array([1.0] * 18 + [1e6, -1e6])
        assert trimmed_mean(x, 0.1) == pytest.approx(1.0)

    def test_rejects_half_or_more(self):
        with pytest.raises(ValueError):
            trimmed_mean(np.ones(10), 0.5)

    def test_small_sample_falls_back_to_mean(self):
        x = np.array([1.0, 5.0])
        # floor(0.1 * 2) == 0 -> plain mean
        assert trimmed_mean(x, 0.1) == pytest.approx(3.0)


class TestMedianOfMeans:
    def test_clean_data(self, rng):
        x = rng.normal(loc=2.0, size=8000)
        assert median_of_means(x, 10, rng=rng) == pytest.approx(2.0, abs=0.1)

    def test_robust_to_few_outliers(self, rng):
        x = rng.normal(loc=1.0, size=1000)
        x[:3] = 1e8
        assert median_of_means(x, 20, rng=rng) == pytest.approx(1.0, abs=0.3)

    def test_more_blocks_than_samples(self, rng):
        x = np.array([1.0, 2.0, 3.0])
        # blocks get clamped to the sample size
        out = median_of_means(x, 100, rng=rng)
        assert out == pytest.approx(2.0)

    def test_deterministic_given_rng(self):
        x = np.arange(100, dtype=float)
        a = median_of_means(x, 8, rng=np.random.default_rng(1))
        b = median_of_means(x, 8, rng=np.random.default_rng(1))
        assert a == b


class TestCoordinatewise:
    def test_applies_per_column(self, rng):
        X = np.column_stack([np.full(50, 1.0), np.full(50, -2.0)])
        out = coordinatewise(empirical_mean, X)
        np.testing.assert_allclose(out, [1.0, -2.0])

    def test_kwargs_forwarded(self):
        X = np.column_stack([np.concatenate([np.ones(18), [1e9, -1e9]])] * 2)
        out = coordinatewise(trimmed_mean, X, trim_fraction=0.1)
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            coordinatewise(empirical_mean, np.ones(5))


class TestColumnwiseFastPaths:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 11), (200, 5)])
    def test_empirical_mean_bit_identical(self, shape):
        x = np.random.default_rng(3).lognormal(size=shape)
        loop = np.array([empirical_mean(x[:, j]) for j in range(x.shape[1])])
        fast = coordinatewise(empirical_mean, x)
        assert np.array_equal(loop, fast)
        assert np.array_equal(np.signbit(loop), np.signbit(fast))

    @pytest.mark.parametrize("frac", [0.0, 0.1, 0.25, 0.49])
    def test_trimmed_mean_bit_identical(self, frac):
        x = np.random.default_rng(4).standard_t(df=3, size=(57, 9))
        loop = np.array([trimmed_mean(x[:, j], trim_fraction=frac)
                         for j in range(x.shape[1])])
        fast = coordinatewise(trimmed_mean, x, trim_fraction=frac)
        assert np.array_equal(loop, fast)

    def test_non_finite_falls_back_to_loop_errors(self):
        x = np.ones((4, 2))
        x[1, 1] = np.inf
        from repro._validation import ConfigurationError
        with pytest.raises(ConfigurationError):
            coordinatewise(empirical_mean, x)

    def test_bad_trim_fraction_error_unchanged(self):
        x = np.ones((6, 2))
        with pytest.raises(ValueError, match="trim_fraction must be < 0.5"):
            coordinatewise(trimmed_mean, x, trim_fraction=0.5)

    def test_empty_column_error_unchanged(self):
        with pytest.raises(ValueError, match="non-empty"):
            coordinatewise(empirical_mean, np.empty((0, 3)))

    def test_unregistered_estimator_uses_loop(self):
        x = np.random.default_rng(5).lognormal(size=(32, 4))
        loop = np.array([median_of_means(x[:, j], rng=0)
                         for j in range(x.shape[1])])
        assert np.array_equal(coordinatewise(median_of_means, x, rng=0), loop)

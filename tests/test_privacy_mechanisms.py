"""Distributional and API tests for the DP mechanisms."""

import numpy as np
import pytest
from scipy import stats

from repro.privacy import (
    ExponentialMechanism,
    GaussianMechanism,
    LaplaceMechanism,
    report_noisy_max,
)


class TestLaplaceMechanism:
    def test_scale(self):
        mech = LaplaceMechanism(epsilon=0.5, sensitivity=2.0)
        assert mech.scale == pytest.approx(4.0)

    def test_budget_is_pure(self):
        assert LaplaceMechanism(1.0, 1.0).budget.is_pure

    def test_noise_distribution(self, rng):
        mech = LaplaceMechanism(epsilon=1.0, sensitivity=1.0)
        noise = mech.randomize(np.zeros(20_000), rng=rng)
        # Laplace(1): mean 0, variance 2.
        assert abs(noise.mean()) < 0.05
        assert noise.var() == pytest.approx(2.0, rel=0.1)

    def test_shape_preserved(self, rng):
        mech = LaplaceMechanism(epsilon=1.0, sensitivity=1.0)
        out = mech.randomize(np.ones((3, 4)), rng=rng)
        assert out.shape == (3, 4)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LaplaceMechanism(epsilon=0.0, sensitivity=1.0)
        with pytest.raises(ValueError):
            LaplaceMechanism(epsilon=1.0, sensitivity=0.0)


class TestGaussianMechanism:
    def test_sigma_formula(self):
        mech = GaussianMechanism(epsilon=1.0, delta=1e-5, sensitivity=2.0)
        expected = 2.0 * np.sqrt(2.0 * np.log(1.25 / 1e-5))
        assert mech.sigma == pytest.approx(expected)

    def test_noise_distribution(self, rng):
        mech = GaussianMechanism(epsilon=2.0, delta=1e-3, sensitivity=1.0)
        noise = mech.randomize(np.zeros(20_000), rng=rng)
        assert noise.std() == pytest.approx(mech.sigma, rel=0.05)

    def test_budget(self):
        b = GaussianMechanism(1.0, 1e-5, 1.0).budget
        assert b.epsilon == 1.0 and b.delta == 1e-5

    def test_warns_above_unit_epsilon(self):
        with pytest.warns(UserWarning, match="epsilon <= 1"):
            GaussianMechanism(epsilon=2.0, delta=1e-5, sensitivity=1.0)

    def test_no_warning_at_or_below_unit_epsilon(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GaussianMechanism(epsilon=1.0, delta=1e-5, sensitivity=1.0)
            GaussianMechanism(epsilon=0.5, delta=1e-5, sensitivity=1.0)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            GaussianMechanism(epsilon=1.0, delta=0.0, sensitivity=1.0)
        with pytest.raises(ValueError):
            GaussianMechanism(epsilon=1.0, delta=1.0, sensitivity=1.0)


class TestExponentialMechanism:
    def test_probabilities_sum_to_one(self):
        mech = ExponentialMechanism(epsilon=1.0, sensitivity=1.0)
        p = mech.probabilities(np.array([0.0, 1.0, 2.0]))
        assert p.sum() == pytest.approx(1.0)

    def test_probabilities_prefer_high_scores(self):
        mech = ExponentialMechanism(epsilon=2.0, sensitivity=1.0)
        p = mech.probabilities(np.array([0.0, 5.0]))
        assert p[1] > p[0]
        # exact form: p1/p0 = exp(eps * (u1-u0) / (2 Delta)) = exp(5)
        assert p[1] / p[0] == pytest.approx(np.exp(5.0), rel=1e-9)

    def test_extreme_scores_are_stable(self):
        mech = ExponentialMechanism(epsilon=1.0, sensitivity=1e-6)
        p = mech.probabilities(np.array([0.0, 1e6, -1e6]))
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0)

    def test_softmax_select_survives_widely_separated_scores(self, rng):
        """Rounding in exp/normalisation must not crash ``rng.choice``.

        With widely separated logits the probability vector collapses to
        a single surviving mass (plus rounding dust); the softmax path
        renormalises defensively instead of raising ``ValueError:
        probabilities do not sum to 1``.
        """
        mech = ExponentialMechanism(epsilon=4.0, sensitivity=1e-9,
                                    method="softmax")
        scores = np.array([-1e12, 0.0, 1e12, 3.0, -7.5])
        for _ in range(50):
            assert mech.select(scores, rng=rng) == 2

    @pytest.mark.parametrize("scores", [
        np.array([0.0, 0.7, 1.5, -0.5]),
        np.array([-1e12, 0.0, 1e12, 3.0, -7.5]),
        np.linspace(-40.0, 40.0, 200),
        np.array([2.5]),
    ], ids=["small", "widely-separated", "many", "single"])
    def test_softmax_select_draws_what_choice_draws(self, scores):
        """The CDF-inversion sampler is ``Generator.choice(n, p=p)``.

        Same index for every draw, and the same Generator state after
        it: one uniform per draw, nothing else.
        """
        for sensitivity in (1e-9, 0.05, 1.0, 30.0):
            mech = ExponentialMechanism(epsilon=2.0, sensitivity=sensitivity)
            with np.errstate(over="ignore"):
                logits = scores * (mech.epsilon / (2.0 * sensitivity))
            if not np.all(np.isfinite(logits)):
                continue
            probs = mech.probabilities(scores)
            probs = probs / probs.sum()
            for seed in range(25):
                ours = np.random.default_rng(seed)
                theirs = np.random.default_rng(seed)
                for _ in range(8):
                    assert mech.select(scores, rng=ours) == int(
                        theirs.choice(scores.size, p=probs))
                assert (ours.bit_generator.state
                        == theirs.bit_generator.state)

    @pytest.mark.parametrize("method", ["softmax", "gumbel"])
    def test_select_rejects_logit_overflow(self, method, rng):
        # Finite scores can still overflow once scaled by
        # eps/(2*sensitivity); both samplers must refuse rather than
        # degrade to a deterministic argmax.
        mech = ExponentialMechanism(epsilon=4.0, sensitivity=1e-9,
                                    method=method)
        with pytest.raises(ValueError, match="finite"):
            mech.select(np.array([1e300, 0.0]), rng=rng)

    @pytest.mark.parametrize("method", ["softmax", "gumbel"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_select_rejects_degenerate_scores(self, method, bad, rng):
        # A non-finite score admits no exponential-mechanism distribution;
        # silently returning a deterministic argmax would void the
        # privacy guarantee, so both samplers must raise.
        mech = ExponentialMechanism(epsilon=1.0, sensitivity=1.0,
                                    method=method)
        with pytest.raises(ValueError, match="finite"):
            mech.select(np.array([0.0, bad, -1.0]), rng=rng)

    @pytest.mark.parametrize("method", ["softmax", "gumbel"])
    def test_empirical_distribution_matches(self, method, rng):
        """Both samplers should realise the exponential-mechanism law."""
        scores = np.array([0.0, 0.7, 1.5, -0.5])
        mech = ExponentialMechanism(epsilon=2.0, sensitivity=1.0, method=method)
        expected = mech.probabilities(scores)
        draws = np.array([mech.select(scores, rng=rng) for _ in range(8000)])
        counts = np.bincount(draws, minlength=scores.size)
        _, p_value = stats.chisquare(counts, expected * draws.size)
        assert p_value > 1e-4  # not a significant deviation

    def test_select_rejects_empty(self, rng):
        mech = ExponentialMechanism(epsilon=1.0, sensitivity=1.0)
        with pytest.raises(ValueError):
            mech.select(np.array([]), rng=rng)

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            ExponentialMechanism(epsilon=1.0, sensitivity=1.0, method="bogus")


class TestReportNoisyMax:
    def test_returns_argmax_with_high_epsilon(self, rng):
        scores = np.array([0.0, 10.0, 1.0])
        picks = {report_noisy_max(scores, epsilon=100.0, sensitivity=0.01, rng=rng)
                 for _ in range(20)}
        assert picks == {1}

    def test_exclusion(self, rng):
        scores = np.array([0.0, 10.0, 1.0])
        exclude = np.array([False, True, False])
        for _ in range(20):
            pick = report_noisy_max(scores, epsilon=100.0, sensitivity=0.01,
                                    rng=rng, exclude=exclude)
            assert pick != 1

    def test_all_excluded_raises(self, rng):
        with pytest.raises(ValueError):
            report_noisy_max(np.array([1.0]), 1.0, 1.0, rng=rng,
                             exclude=np.array([True]))

    def test_randomises_with_low_epsilon(self, rng):
        scores = np.array([0.0, 0.1])
        picks = {report_noisy_max(scores, epsilon=0.01, sensitivity=1.0, rng=rng)
                 for _ in range(50)}
        assert picks == {0, 1}

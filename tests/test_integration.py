"""Cross-module integration tests.

These exercise the full pipelines the benches use: generate heavy-tailed
data, fit private and non-private solvers, evaluate excess risk, and
check the qualitative claims of the paper's theorems at small scale.
"""

import numpy as np
import pytest

from repro import (
    DistributionSpec,
    HeavyTailedDPFW,
    HeavyTailedPrivateLasso,
    HeavyTailedSparseLinearRegression,
    HeavyTailedSparseOptimizer,
    L1Ball,
    SquaredLoss,
    l1_ball_truth,
    make_linear_data,
    sparse_truth,
)
from repro.baselines import FrankWolfe
from repro.evaluation import TrialStats, excess_empirical_risk
from repro.rng import spawn_rngs

LOGNORMAL = DistributionSpec("lognormal", {"sigma": 0.6})
SMALL_NOISE = DistributionSpec("gaussian", {"scale": 0.1})


class TestFigure1Pipeline:
    """The Figure 1 code path at toy scale."""

    def test_private_approaches_nonprivate_with_n(self):
        loss = SquaredLoss()
        gaps = {}
        for n in (2000, 32_000):
            def trial(rng, n=n):
                w_star = l1_ball_truth(10, rng)
                data = make_linear_data(n, w_star, LOGNORMAL, SMALL_NOISE,
                                        rng=rng)
                ball = L1Ball(10)
                w_np = FrankWolfe(loss, ball, n_iterations=60).fit(
                    data.features, data.labels)
                res = HeavyTailedDPFW(loss, ball, epsilon=1.0, tau=5.0).fit(
                    data.features, data.labels, rng=rng)
                return (loss.value(res.w, data.features, data.labels)
                        - loss.value(w_np, data.features, data.labels))
            gaps[n] = TrialStats.from_values(
                [trial(r) for r in spawn_rngs(0, 4)]).mean
        assert gaps[32_000] < gaps[2000]

    def test_dimension_insensitivity(self):
        """Theorem 2's log d dependence: d=12 vs d=96 errors are comparable."""
        loss = SquaredLoss()
        errors = {}
        for d in (12, 96):
            def trial(rng, d=d):
                w_star = l1_ball_truth(d, rng)
                data = make_linear_data(8000, w_star, LOGNORMAL, SMALL_NOISE,
                                        rng=rng)
                res = HeavyTailedDPFW(loss, L1Ball(d), epsilon=1.0, tau=5.0).fit(
                    data.features, data.labels, rng=rng)
                return excess_empirical_risk(loss, res.w, data.w_star,
                                             data.features, data.labels)
            errors[d] = TrialStats.from_values(
                [trial(r) for r in spawn_rngs(1, 4)]).mean
        # x8 dimension must NOT produce x8 error (poly-d would).
        assert errors[96] < 4.0 * max(errors[12], 1e-4)


class TestLassoPipeline:
    def test_error_decreases_with_epsilon(self):
        loss = SquaredLoss()
        errors = {}
        for eps in (0.2, 4.0):
            def trial(rng, eps=eps):
                w_star = l1_ball_truth(8, rng)
                data = make_linear_data(8000, w_star, LOGNORMAL, SMALL_NOISE,
                                        rng=rng)
                res = HeavyTailedPrivateLasso(L1Ball(8), epsilon=eps,
                                              delta=1e-5).fit(
                    data.features, data.labels, rng=rng)
                return excess_empirical_risk(loss, res.w, data.w_star,
                                             data.features, data.labels)
            errors[eps] = TrialStats.from_values(
                [trial(r) for r in spawn_rngs(2, 4)]).mean
        assert errors[4.0] < errors[0.2]


class TestSparsePipeline:
    def test_error_grows_with_sparsity(self):
        """Figures 7-9 panel (c): the error depends polynomially on s*."""
        errors = {}
        for s_star in (2, 16):
            def trial(rng, s_star=s_star):
                w_star = sparse_truth(64, s_star, rng, norm_bound=0.5)
                data = make_linear_data(20_000, w_star,
                                        DistributionSpec("gaussian",
                                                         {"scale": 1.0}),
                                        DistributionSpec("lognormal",
                                                         {"sigma": 0.5}),
                                        rng=rng)
                res = HeavyTailedSparseLinearRegression(
                    sparsity=s_star, epsilon=8.0, delta=1e-5).fit(
                    data.features, data.labels, rng=rng)
                return float(np.linalg.norm(res.w - w_star))
            errors[s_star] = TrialStats.from_values(
                [trial(r) for r in spawn_rngs(3, 3)]).mean
        assert errors[16] > errors[2]

    def test_error_decreases_with_n(self):
        errors = {}
        for n in (10_000, 80_000):
            def trial(rng, n=n):
                w_star = sparse_truth(40, 3, rng, norm_bound=0.5)
                data = make_linear_data(n, w_star,
                                        DistributionSpec("gaussian",
                                                         {"scale": 1.0}),
                                        DistributionSpec("lognormal",
                                                         {"sigma": 0.5}),
                                        rng=rng)
                res = HeavyTailedSparseLinearRegression(
                    sparsity=3, epsilon=4.0, delta=1e-5).fit(
                    data.features, data.labels, rng=rng)
                return float(np.linalg.norm(res.w - w_star))
            errors[n] = TrialStats.from_values(
                [trial(r) for r in spawn_rngs(4, 3)]).mean
        assert errors[80_000] < errors[10_000]


class TestPrivacyAccountingEndToEnd:
    def test_every_algorithm_reports_its_budget(self, rng):
        w_star = l1_ball_truth(6, rng)
        data = make_linear_data(1500, w_star, LOGNORMAL, SMALL_NOISE, rng=rng)
        runs = [
            HeavyTailedDPFW(SquaredLoss(), L1Ball(6), epsilon=1.0).fit(
                data.features, data.labels, rng=rng),
            HeavyTailedPrivateLasso(L1Ball(6), epsilon=1.0, delta=1e-5).fit(
                data.features, data.labels, rng=rng),
        ]
        w_sp = sparse_truth(6, 2, rng, norm_bound=0.5)
        sparse_data = make_linear_data(
            1500, w_sp, DistributionSpec("gaussian", {"scale": 1.0}),
            SMALL_NOISE, rng=rng)
        runs.append(HeavyTailedSparseLinearRegression(
            sparsity=2, epsilon=1.0, delta=1e-5).fit(
            sparse_data.features, sparse_data.labels, rng=rng))
        for result in runs:
            assert result.privacy_spent is not None
            assert result.advertised_budget.covers(result.privacy_spent)
            assert result.privacy_spent.covers(result.advertised_budget)



def _in_l1_ball(w):
    return L1Ball(w.size).contains(w, tol=1e-9)


def _sparse(w):
    return np.count_nonzero(w) <= 4


def _sparse_in_l2_ball(w):
    return _sparse(w) and np.linalg.norm(w) <= 1.0 + 1e-12


# Each paper algorithm with T = 5 and the set its iterates must stay in:
# the l1 ball for the Frank-Wolfe methods, the s-sparse vectors
# (s = 2 * sparsity = 4) for the peeling methods, which Algorithm 3
# also projects onto the unit l2 ball.
PAPER_ALGORITHMS = [
    pytest.param(HeavyTailedDPFW(SquaredLoss(), L1Ball(10), epsilon=1.0,
                                 n_iterations=5),
                 _in_l1_ball, id="algorithm1_dp_fw"),
    pytest.param(HeavyTailedPrivateLasso(L1Ball(10), epsilon=1.0, delta=1e-5,
                                         n_iterations=5),
                 _in_l1_ball, id="algorithm2_private_lasso"),
    pytest.param(HeavyTailedSparseLinearRegression(
                     sparsity=2, epsilon=1.0, delta=1e-5, n_iterations=5),
                 _sparse_in_l2_ball, id="algorithm3_sparse_linear"),
    pytest.param(HeavyTailedSparseOptimizer(
                     SquaredLoss(), sparsity=2, epsilon=1.0, delta=1e-5,
                     n_iterations=5),
                 _sparse, id="algorithm5_sparse_optimizer"),
]


class TestIterateCallback:
    """``fit(callback=)`` is the one way to watch a paper algorithm run."""

    @pytest.mark.parametrize("solver, feasible", PAPER_ALGORITHMS)
    def test_fires_once_per_iteration_with_feasible_iterates(
            self, solver, feasible, rng):
        w_star = sparse_truth(10, 2, rng, norm_bound=0.5)
        data = make_linear_data(1000, w_star, LOGNORMAL, SMALL_NOISE, rng=rng)
        seen = []
        result = solver.fit(data.features, data.labels, rng=rng,
                            callback=lambda t, w: seen.append((t, w.copy())))
        assert result.n_iterations == 5
        assert [t for t, _ in seen] == list(range(5))
        for _, w in seen:
            assert feasible(w)
        np.testing.assert_array_equal(seen[-1][1], result.w)

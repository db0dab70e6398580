"""Tests for Algorithm 1 — Heavy-tailed DP-FW."""

import numpy as np
import pytest

from repro import (
    DistributionSpec,
    HeavyTailedDPFW,
    L1Ball,
    SquaredLoss,
    l1_ball_truth,
    make_linear_data,
)
from repro.losses import BiweightLoss, LogisticLoss


def _lognormal_linear(rng, n=4000, d=10):
    w_star = l1_ball_truth(d, rng)
    data = make_linear_data(n, w_star,
                            DistributionSpec("lognormal", {"sigma": 0.6}),
                            DistributionSpec("gaussian", {"scale": 0.1}),
                            rng=rng)
    return data


class TestConfiguration:
    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            HeavyTailedDPFW(SquaredLoss(), L1Ball(5), epsilon=0.0)

    def test_dimension_mismatch(self, rng):
        solver = HeavyTailedDPFW(SquaredLoss(), L1Ball(3), epsilon=1.0)
        with pytest.raises(ValueError):
            solver.fit(rng.normal(size=(10, 4)), rng.normal(size=10))

    def test_schedule_resolution(self):
        solver = HeavyTailedDPFW(SquaredLoss(), L1Ball(5), epsilon=1.0,
                                 schedule_mode="paper")
        sched = solver.resolve_schedule(8000)
        assert sched.n_iterations == int(8000 ** (1 / 3))
        assert sched.scale > 0

    def test_explicit_overrides(self, rng):
        data = _lognormal_linear(rng, n=500, d=4)
        solver = HeavyTailedDPFW(SquaredLoss(), L1Ball(4), epsilon=1.0,
                                 n_iterations=3, scale=2.0)
        result = solver.fit(data.features, data.labels, rng=rng)
        assert result.n_iterations == 3
        assert result.metadata["scale"] == 2.0


class TestPrivacyBookkeeping:
    def test_advertised_budget_is_pure_epsilon(self, rng):
        data = _lognormal_linear(rng, n=1000, d=5)
        solver = HeavyTailedDPFW(SquaredLoss(), L1Ball(5), epsilon=0.8)
        result = solver.fit(data.features, data.labels, rng=rng)
        assert result.advertised_budget.epsilon == 0.8
        assert result.advertised_budget.is_pure

    def test_ledger_matches_advertised(self, rng):
        data = _lognormal_linear(rng, n=1000, d=5)
        solver = HeavyTailedDPFW(SquaredLoss(), L1Ball(5), epsilon=0.8)
        result = solver.fit(data.features, data.labels, rng=rng)
        assert result.privacy_spent.epsilon == pytest.approx(0.8)
        assert result.privacy_spent.delta == 0.0

    def test_ledger_notes_parallel_composition(self, rng):
        data = _lognormal_linear(rng, n=1000, d=5)
        result = HeavyTailedDPFW(SquaredLoss(), L1Ball(5), epsilon=1.0).fit(
            data.features, data.labels, rng=rng)
        assert "parallel composition" in result.accountant.entries[0].note


class TestOptimization:
    def test_iterate_stays_feasible(self, rng):
        data = _lognormal_linear(rng, n=2000, d=8)
        ball = L1Ball(8)
        solver = HeavyTailedDPFW(SquaredLoss(), ball, epsilon=1.0)
        iterates = []
        solver.fit(data.features, data.labels, rng=rng,
                   callback=lambda t, w: iterates.append(w.copy()))
        assert iterates
        for w in iterates:
            assert ball.contains(w, tol=1e-9)

    def test_risk_decreases_from_start(self, rng):
        data = _lognormal_linear(rng, n=8000, d=10)
        loss, ball = SquaredLoss(), L1Ball(10)
        solver = HeavyTailedDPFW(loss, ball, epsilon=2.0, tau=5.0)
        result = solver.fit(data.features, data.labels, rng=rng)
        start_risk = loss.value(ball.initial_point(), data.features, data.labels)
        assert loss.value(result.w, data.features, data.labels) < start_risk

    def test_beats_trivial_predictor(self, rng):
        data = _lognormal_linear(rng, n=10_000, d=10)
        loss = SquaredLoss()
        solver = HeavyTailedDPFW(loss, L1Ball(10), epsilon=2.0, tau=5.0)
        result = solver.fit(data.features, data.labels, rng=rng)
        risk_zero = loss.value(np.zeros(10), data.features, data.labels)
        assert loss.value(result.w, data.features, data.labels) < risk_zero

    def test_robust_to_gross_outliers(self, rng):
        """A single corrupted sample must not derail the fit (bounded influence)."""
        data = _lognormal_linear(rng, n=4000, d=6)
        X, y = data.features.copy(), data.labels.copy()
        X[0] = 1e9
        y[0] = -1e9
        loss = SquaredLoss()
        solver = HeavyTailedDPFW(loss, L1Ball(6), epsilon=2.0, tau=5.0)
        result = solver.fit(X, y, rng=rng)
        assert np.all(np.isfinite(result.w))
        clean_risk = loss.value(result.w, data.features[1:], data.labels[1:])
        zero_risk = loss.value(np.zeros(6), data.features[1:], data.labels[1:])
        assert clean_risk <= zero_risk * 1.2

    def test_callback_invoked_every_iteration(self, rng):
        data = _lognormal_linear(rng, n=500, d=4)
        calls = []
        solver = HeavyTailedDPFW(SquaredLoss(), L1Ball(4), epsilon=1.0,
                                 n_iterations=4)
        solver.fit(data.features, data.labels, rng=rng,
                   callback=lambda t, w: calls.append(t))
        assert calls == [0, 1, 2, 3]

    def test_works_with_logistic_loss(self, rng):
        from repro.data import make_logistic_data

        w_star = l1_ball_truth(6, rng)
        data = make_logistic_data(4000, w_star,
                                  DistributionSpec("lognormal", {"sigma": 0.6}),
                                  rng=rng)
        loss = LogisticLoss()
        result = HeavyTailedDPFW(loss, L1Ball(6), epsilon=2.0).fit(
            data.features, data.labels, rng=rng)
        assert loss.value(result.w, data.features, data.labels) <= np.log(2.0) * 1.05

    def test_works_with_biweight_loss(self, rng):
        data = _lognormal_linear(rng, n=2000, d=5)
        loss = BiweightLoss(c=2.0)
        result = HeavyTailedDPFW(loss, L1Ball(5), epsilon=2.0).fit(
            data.features, data.labels, rng=rng)
        assert np.all(np.isfinite(result.w))

    def test_reproducible_given_seed(self, rng):
        data = _lognormal_linear(rng, n=1000, d=5)
        solver = HeavyTailedDPFW(SquaredLoss(), L1Ball(5), epsilon=1.0)
        a = solver.fit(data.features, data.labels, rng=np.random.default_rng(9))
        b = solver.fit(data.features, data.labels, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.w, b.w)

    def test_error_improves_with_epsilon(self, rng):
        """Across repeats, eps=8 should beat eps=0.05 on average."""
        loss = SquaredLoss()
        gaps = {0.05: [], 8.0: []}
        for seed in range(5):
            trial_rng = np.random.default_rng(seed)
            data = _lognormal_linear(trial_rng, n=6000, d=8)
            for eps in gaps:
                solver = HeavyTailedDPFW(loss, L1Ball(8), epsilon=eps, tau=5.0)
                res = solver.fit(data.features, data.labels,
                                 rng=np.random.default_rng(seed + 100))
                gaps[eps].append(loss.value(res.w, data.features, data.labels))
        assert np.mean(gaps[8.0]) < np.mean(gaps[0.05])

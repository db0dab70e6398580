"""Tests for the trial-batched fast paths and their bit-identity contract.

Three layers of guarantees:

* **dispatch** — ``TrialJob.execute`` routes whole cells through
  ``batch_point`` when a scenario declares one, on every executor;
  ``REPRO_BATCH_TRIALS=0`` forces the scalar loop; a wrong-length batch
  is rejected; scenarios without the method are untouched.
* **fingerprint neutrality** — declaring (or editing) a
  ``batch_method`` never moves a scenario's cache fingerprint, so
  opting in cannot invalidate warm cells or shift a ``run_id``.
* **bit-identity** — for every batched catalog family, the batched and
  scalar paths produce float-for-float identical trial statistics on
  small grids, and the vectorized satellites (column-wise estimators,
  finite-difference oracle, hypercube geometry) match the loops they
  replaced exactly.
"""

import math
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.estimators.baseline_means import (
    coordinatewise,
    empirical_mean,
    median_of_means,
    trimmed_mean,
)
from repro.evaluation import (
    Scenario,
    batch_method,
    build_jobs,
    point_fingerprint,
    run_grid,
)
from repro.experiments.panels import (
    DistributionSpec,
    L1LinearPanel,
    L1PrivateVsNonprivatePanel,
    TruncationThresholdAblation,
)
from repro.geometry import Hypercube, L1Ball, hypercube
from repro.losses import SquaredLoss
from repro.losses.base import finite_difference_gradient


@dataclass(frozen=True)
class _MarkerScenario(Scenario):
    """Scalar path returns 1.0; batched path returns 2.0 — which ran?"""

    def __call__(self, series, x, rng):
        rng.normal()
        return 1.0

    @batch_method
    def batch_point(self, series, x, rngs):
        """Consume the per-trial draw, return the batched marker."""
        for rng in rngs:
            rng.normal()
        return [2.0] * len(rngs)


@dataclass(frozen=True)
class _ScalarOnlyScenario(Scenario):
    """A scenario without a batched path — must use the plain loop."""

    def __call__(self, series, x, rng):
        return float(rng.normal())


@dataclass(frozen=True)
class _ShortBatchScenario(Scenario):
    """Batched path that drops a trial — the engine must reject it."""

    def __call__(self, series, x, rng):
        return float(rng.normal())

    @batch_method
    def batch_point(self, series, x, rngs):
        """Return one value too few."""
        return [float(rng.normal()) for rng in rngs[:-1]]


def _job(point, n_trials=3):
    """One TrialJob for a fixed tiny cell."""
    return build_jobs("n", [100], "d", [5], n_trials=n_trials, seed=0)[0]


class TestDispatch:
    def test_batch_path_taken_when_declared(self):
        assert _job(None).execute(_MarkerScenario()) == [2.0, 2.0, 2.0]

    def test_kill_switch_forces_scalar_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_TRIALS", "0")
        assert _job(None).execute(_MarkerScenario()) == [1.0, 1.0, 1.0]

    def test_kill_switch_off_values_other_than_zero_still_batch(self,
                                                                monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_TRIALS", "1")
        assert _job(None).execute(_MarkerScenario()) == [2.0, 2.0, 2.0]

    def test_scalar_only_scenario_untouched(self, monkeypatch):
        values = _job(None).execute(_ScalarOnlyScenario())
        monkeypatch.setenv("REPRO_BATCH_TRIALS", "0")
        assert _job(None).execute(_ScalarOnlyScenario()) == values

    def test_wrong_length_batch_rejected(self):
        with pytest.raises(ValueError, match="returned 2 values"):
            _job(None).execute(_ShortBatchScenario())

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_dispatch_on_pool_executors(self, executor):
        result = run_grid(_MarkerScenario(), "n", [10, 20], "d", [5],
                          n_trials=2, seed=0, executor=executor,
                          max_workers=2)
        assert result.means(5).tolist() == [2.0, 2.0]

    def test_dispatch_on_fleet_executor(self):
        result = run_grid(_MarkerScenario(), "n", [10], "d", [5],
                          n_trials=2, seed=0, executor="fleet",
                          max_workers=2)
        assert result.means(5).tolist() == [2.0]


def _probe_class(with_batch: bool):
    """The same scenario class, with or without a batched path."""
    if with_batch:
        @dataclass(frozen=True)
        class Probe(Scenario):
            """Fingerprint probe."""

            slope: float = 1.0

            def __call__(self, series, x, rng):
                """Scalar path."""
                return self.slope * float(rng.normal())

            @batch_method
            def batch_point(self, series, x, rngs):
                """Batched path (helper below is also invisible)."""
                return _probe_helper(self.slope, rngs)
    else:
        @dataclass(frozen=True)
        class Probe(Scenario):
            """Fingerprint probe."""

            slope: float = 1.0

            def __call__(self, series, x, rng):
                """Scalar path."""
                return self.slope * float(rng.normal())
    return Probe


def _probe_helper(slope, rngs):
    """Module-level helper reachable only from a batch_method body."""
    return [slope * float(rng.normal()) for rng in rngs]


class TestFingerprintNeutrality:
    def test_batch_method_invisible_to_fingerprint(self):
        plain = _probe_class(with_batch=False)(slope=2.0)
        batched = _probe_class(with_batch=True)(slope=2.0)
        assert point_fingerprint(plain) == point_fingerprint(batched)

    def test_fields_still_fingerprinted(self):
        cls = _probe_class(with_batch=True)
        assert point_fingerprint(cls(slope=2.0)) != \
            point_fingerprint(cls(slope=3.0))

    def test_batch_method_binds_like_a_method(self):
        cls = _probe_class(with_batch=True)
        instance = cls(slope=2.0)
        rng = np.random.default_rng(0)
        expected = 2.0 * float(np.random.default_rng(0).normal())
        assert instance.batch_point(None, None, [rng]) == [expected]
        # Class access unwraps to the plain function.
        assert callable(cls.batch_point)


_FEATURES = DistributionSpec("lognormal", {"sigma": 0.6})
_NOISE = DistributionSpec("gaussian", {"scale": 0.1})


def _tiny_panels():
    """One small instance + grid per catalog family with a batch_point.

    ``L1LinearPanel(solver="dpfw")`` checks the per-trial fallback of a
    family whose DP-FW solver has no batched form.
    """
    from repro.core import HeavyTailedPrivateLasso
    threshold = HeavyTailedPrivateLasso(
        L1Ball(8), epsilon=1.0, delta=1e-5).resolve_schedule(400).threshold
    return [
        (L1LinearPanel(solver="dpfw", features=_FEATURES, noise=_NOISE,
                       sweep="epsilon", n_fixed=300),
         "epsilon", [0.5, 1.0], "d", [6]),
        (L1LinearPanel(solver="lasso", features=_FEATURES, noise=_NOISE,
                       sweep="n", eps_fixed=1.0),
         "n", [200, 400], "d", [6]),
        (L1PrivateVsNonprivatePanel(solver="lasso", features=_FEATURES,
                                    noise=_NOISE, d_fixed=6),
         "n", [300], "kind", ["private(eps=1)", "non-private"]),
        (TruncationThresholdAblation(features=_FEATURES, noise=_NOISE, d=8,
                                     n=400, theory_threshold=threshold),
         "K_multiplier", [0.3, 1.0], "metric", ["excess_risk"]),
    ]


def _stats_tuple(result):
    """Every float the grid produced, in a comparable flat layout."""
    return [(series, [(s.mean, s.std, s.minimum, s.maximum)
                      for s in stats])
            for series, stats in sorted(result.series.items(),
                                        key=lambda kv: str(kv[0]))]


class TestPanelBitIdentity:
    @pytest.mark.parametrize(
        "point,sweep_name,sweep_values,series_name,series_values",
        _tiny_panels(),
        ids=lambda p: type(p).__name__ if isinstance(p, Scenario) else None)
    def test_batched_equals_scalar(self, monkeypatch, point, sweep_name,
                                   sweep_values, series_name, series_values):
        assert callable(getattr(point, "batch_point", None))
        batched = run_grid(point, sweep_name, sweep_values,
                           series_name, series_values, n_trials=2, seed=11)
        monkeypatch.setenv("REPRO_BATCH_TRIALS", "0")
        scalar = run_grid(point, sweep_name, sweep_values,
                          series_name, series_values, n_trials=2, seed=11)
        assert _stats_tuple(batched) == _stats_tuple(scalar)

    def test_batched_equals_scalar_on_thread_executor(self, monkeypatch):
        point, sweep_name, sweep_values, series_name, series_values = \
            _tiny_panels()[3]  # the truncation ablation (lasso family)
        batched = run_grid(point, sweep_name, sweep_values, series_name,
                           series_values, n_trials=2, seed=7,
                           executor="thread", max_workers=2)
        monkeypatch.setenv("REPRO_BATCH_TRIALS", "0")
        scalar = run_grid(point, sweep_name, sweep_values, series_name,
                          series_values, n_trials=2, seed=7)
        assert _stats_tuple(batched) == _stats_tuple(scalar)


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


class TestFiniteDifference:
    def test_matches_per_coordinate_loop(self):
        rng = np.random.default_rng(6)
        X = rng.lognormal(size=(25, 4))
        y = rng.normal(size=25)
        w = rng.normal(size=4)
        loss = SquaredLoss()
        step = 1e-6
        old = np.zeros(4)
        for j in range(4):  # the loop the batched construction replaced
            bump = np.zeros(4)
            bump[j] = step
            old[j] = (loss.value(w + bump, X, y) -
                      loss.value(w - bump, X, y)) / (2 * step)
        assert np.array_equal(finite_difference_gradient(loss, w, X, y), old)


class TestHypercube:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("radius", [1.0, 0.5, 2.7])
    def test_corners_bit_identical_to_comprehension(self, d, radius):
        old = np.array([[radius if (mask >> j) & 1 else -radius
                         for j in range(d)] for mask in range(2 ** d)])
        assert np.array_equal(hypercube(d, radius).vertices, old)

    def test_vertex_scores_matrix_free(self):
        cube = hypercube(7, 1.5)
        g = np.random.default_rng(8).normal(size=7)
        scores = cube.vertex_scores(g)
        assert cube._corner_cache is None  # never materialized
        dense = -cube.vertices @ g
        assert np.allclose(scores, dense)
        assert int(np.argmax(scores)) == int(np.argmax(dense))

    def test_vertex_matrix_free(self):
        cube = hypercube(6)
        for index in (0, 1, 37, 63):
            bits = [(index >> j) & 1 for j in range(6)]
            expected = np.array([1.0 if b else -1.0 for b in bits])
            assert np.array_equal(cube.vertex(index), expected)
        assert cube._corner_cache is None

    def test_vertex_index_out_of_range(self):
        with pytest.raises(IndexError):
            hypercube(3).vertex(8)

    def test_linear_minimizer_agrees_with_dense(self):
        cube = hypercube(5, 0.8)
        g = np.random.default_rng(9).normal(size=5)
        index, vertex = cube.linear_minimizer(g)
        dense = np.array([[0.8 if (m >> j) & 1 else -0.8 for j in range(5)]
                          for m in range(32)])
        assert index == int(np.argmin(dense @ g))
        assert np.array_equal(vertex, dense[index])

    def test_generic_operations_trigger_cache(self):
        cube = hypercube(3)
        assert cube.l1_diameter() == 6.0
        assert cube._corner_cache is not None
        assert cube.contains(np.zeros(3))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="d <= 16"):
            Hypercube(17)

    def test_is_a_polytope(self):
        cube = hypercube(2)
        assert cube.dimension == 2
        assert cube.n_vertices == 4


@pytest.mark.perf
@pytest.mark.skipif(os.environ.get("REPRO_RUN_PERF") != "1",
                    reason="wall-clock assertion; set REPRO_RUN_PERF=1")
class TestBatchedSpeedup:
    def test_lasso_family_batching_is_faster(self, monkeypatch):
        """The batched truncation ablation beats the scalar loop cold.

        Batching measured ~2.5x when it was introduced; asserting a
        plain win leaves a wide margin for noisy CI hosts.
        """
        from repro.core import HeavyTailedPrivateLasso
        threshold = HeavyTailedPrivateLasso(
            L1Ball(40), epsilon=1.0,
            delta=1e-5).resolve_schedule(12_000).threshold
        point = TruncationThresholdAblation(
            features=_FEATURES, noise=_NOISE, d=40, n=12_000,
            theory_threshold=threshold)
        grid = dict(n_trials=5, seed=240)

        def timed(batch_trials):
            monkeypatch.setenv("REPRO_BATCH_TRIALS", batch_trials)
            # One untimed run first: the process's one-time warm-up
            # (imports, BLAS start-up, first-touch allocations) would
            # otherwise land on whichever path is timed first.
            run_grid(point, "K_multiplier", [0.3, 1.0, 3.0],
                     "metric", ["excess_risk"], **grid)
            start = time.perf_counter()
            result = run_grid(point, "K_multiplier", [0.3, 1.0, 3.0],
                              "metric", ["excess_risk"], **grid)
            return result, time.perf_counter() - start

        batched, batched_seconds = timed("1")
        scalar, scalar_seconds = timed("0")
        assert _stats_tuple(batched) == _stats_tuple(scalar)
        assert batched_seconds < scalar_seconds


def test_batched_values_survive_float_rounding():
    """math.floor-style artifacts: batch values come back as floats."""
    values = _job(None).execute(_MarkerScenario())
    assert all(isinstance(v, float) for v in values)
    assert math.isfinite(sum(values))

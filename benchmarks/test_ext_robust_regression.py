"""Extension — Theorem 3: Algorithm 1 on the non-convex biweight loss.

The paper proves (Theorem 3) that Heavy-tailed DP-FW attains
``~O(1/(n eps)^{1/4})`` for robust regression with the redescending
Tukey biweight loss under Assumption 2, but runs no experiment for it.
This bench fills that gap: linear model with heavy-tailed symmetric
noise, biweight loss, error vs n and vs ε, with the convex squared-loss
run as a reference (whose Theorem 2 rate is faster, matching the
measured ordering).  Catalog entry: ``ext_robust_regression``.
"""

import numpy as np

from _common import FULL, assert_finite, assert_trending_down, \
    run_catalog_bench
from repro import BiweightLoss, HeavyTailedDPFW, L1Ball
from repro.experiments import bench
from repro.experiments.panels import _l1_linear_data


def test_ext_robust_regression(benchmark):
    definition = bench("ext_robust_regression", full=FULL)
    point = definition.panels[0].point
    n0 = definition.panels[0].sweep_values[0]
    data0 = _l1_linear_data(n0, point.d, point.features, point.noise,
                            np.random.default_rng(0))
    solver0 = HeavyTailedDPFW(BiweightLoss(c=point.biweight_c),
                              L1Ball(point.d), epsilon=1.0, tau=point.tau)
    benchmark.pedantic(
        lambda: solver0.fit(data0.features, data0.labels,
                            rng=np.random.default_rng(1)),
        rounds=1, iterations=1,
    )

    table, table_eps = run_catalog_bench("ext_robust_regression")
    assert_finite(table)
    assert_trending_down(table, slack=0.4)
    assert_finite(table_eps)
    assert_trending_down(table_eps, slack=0.4)

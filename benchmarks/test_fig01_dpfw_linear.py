"""Figure 1 — Algorithm 1 on linear regression with log-normal features.

Paper setup: ``x ~ Lognormal(0, 0.6)``, label noise ``N(0, 0.1)``,
``w*`` in the unit ℓ1 ball.  Three panels:
(a) excess risk vs ε for several d at fixed n;
(b) excess risk vs n for several d at ε = 1;
(c) private vs non-private risk gap vs n at fixed d.

The panel grids/seeds/titles live in the catalog entry
``fig01_dpfw_linear`` (`repro.experiments.catalog`); this file times
one representative fit and asserts the figure's qualitative shapes.
"""

import numpy as np

from _common import (
    FULL,
    assert_dimension_insensitive,
    assert_finite,
    assert_trending_down,
    run_catalog_bench,
)
from repro.experiments import bench
from repro.experiments.panels import _fit_l1_private, _l1_linear_data


def test_fig01_dpfw_linear(benchmark):
    definition = bench("fig01_dpfw_linear", full=FULL)
    panel_a_def = definition.panels[0]
    point = panel_a_def.point
    # Timing sample: one representative private fit.
    timing_data = _l1_linear_data(point.n_fixed, panel_a_def.series_values[0],
                                  point.features, point.noise,
                                  np.random.default_rng(0))
    benchmark.pedantic(
        lambda: _fit_l1_private(point.solver, timing_data, 1.0, point.tau,
                                point.delta, np.random.default_rng(1)),
        rounds=1, iterations=1,
    )

    panel_a, panel_b, panel_c = run_catalog_bench("fig01_dpfw_linear")

    # Panel (a): error vs epsilon, one curve per dimension.
    assert_finite(panel_a)
    assert_trending_down(panel_a, slack=0.3)
    assert_dimension_insensitive(panel_a)

    # Panel (b): error vs n at eps = 1.
    assert_finite(panel_b)
    assert_trending_down(panel_b, slack=0.3)

    # Panel (c): non-private must dominate the private fit at every n.
    assert_finite(panel_c)
    for i in range(len(definition.panels[2].sweep_values)):
        assert panel_c["non-private"][i] <= panel_c["private(eps=1)"][i] + 1e-6

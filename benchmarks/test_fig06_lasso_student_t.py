"""Figure 6 — Algorithm 2 (Private LASSO) with Student-t features.

Paper setup: ``x ~ t(10)`` (polynomial tails, finite fourth moment —
exactly Assumption 3's regime), noise ``N(0, 0.1)``.  Same panels as
Figure 5; grids/seeds/titles live in the catalog entry
``fig06_lasso_student_t``.
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


def test_fig06_lasso_student_t(benchmark):
    definition = bench("fig06_lasso_student_t", full=FULL)
    panel_a_def = definition.panels[0]
    point = panel_a_def.point
    timing_data = _l1_linear_data(point.n_fixed, panel_a_def.series_values[0],
                                  point.features, point.noise,
                                  np.random.default_rng(0))
    benchmark.pedantic(
        lambda: _fit_l1_private(point.solver, timing_data, 1.0, point.tau,
                                point.delta, np.random.default_rng(1)),
        rounds=1, iterations=1,
    )

    panel_a, panel_b, panel_c = run_catalog_bench("fig06_lasso_student_t")

    assert_finite(panel_a)
    assert_trending_down(panel_a, slack=0.5)
    assert_dimension_insensitive(panel_a, factor=6.0)

    assert_finite(panel_b)
    assert_trending_down(panel_b, slack=0.5)

    assert_finite(panel_c)
    for i in range(len(definition.panels[2].sweep_values)):
        assert panel_c["non-private"][i] <= panel_c["private(eps=1)"][i] + 1e-6

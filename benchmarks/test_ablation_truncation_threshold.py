"""Ablation — sensitivity of Algorithm 2 to the shrinkage threshold K.

Theorem 5 sets ``K = (n eps)^{1/4} / T^{1/8}``, balancing shrinkage bias
(small K loses signal) against exponential-mechanism noise (sensitivity
grows as K^2).  We sweep multipliers around the schedule and verify the
U-shape: the theory value must beat both a much smaller and a much
larger threshold.  Catalog entry: ``ablation_truncation_threshold``
(which computes the theory K from the Lasso schedule).
"""

import numpy as np

from _common import FULL, assert_finite, run_catalog_bench
from repro import HeavyTailedPrivateLasso, L1Ball
from repro.experiments import bench
from repro.experiments.panels import _l1_linear_data


def test_ablation_truncation_threshold(benchmark):
    definition = bench("ablation_truncation_threshold", full=FULL)
    point = definition.panels[0].point
    base = HeavyTailedPrivateLasso(L1Ball(point.d), epsilon=1.0, delta=1e-5)
    assert base.resolve_schedule(point.n).threshold == point.theory_threshold
    data0 = _l1_linear_data(point.n, point.d, point.features, point.noise,
                            np.random.default_rng(0))
    benchmark.pedantic(
        lambda: base.fit(data0.features, data0.labels,
                         rng=np.random.default_rng(1)),
        rounds=1, iterations=1,
    )

    table, = run_catalog_bench("ablation_truncation_threshold")
    assert_finite(table)
    curve = table["excess_risk"]
    multipliers = list(definition.panels[0].sweep_values)
    at_theory = curve[multipliers.index(1.0)]
    assert at_theory <= curve[0] * 1.2
    assert at_theory <= curve[-1] * 1.2

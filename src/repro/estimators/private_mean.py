"""Private heavy-tailed mean estimation.

The lower bound of Theorem 9 is stated for *sparse mean estimation with
bounded coordinate second moments*; this module provides the matching
upper-bound constructions assembled from the library's own pieces:

* :func:`private_mean_catoni_laplace` — dense d-dimensional private mean:
  coordinate-wise Catoni influence + Laplace noise calibrated to the
  estimator's ℓ1 sensitivity (ε-DP).  This is the "[57]-style" estimator
  the paper contrasts with (its error is poly(d), as Remark 1 notes).
* :class:`PrivateSparseMeanEstimator` — the high-dimensional route: the
  Catoni estimate followed by Peeling-based private support selection,
  mirroring how Algorithm 5 treats its gradients.  Error scales with
  ``s* log d`` instead of ``d``, matching the Theorem 9 rate up to logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._validation import check_matrix, check_positive, check_positive_int, check_probability
from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import PrivacyBudget
from ..privacy.mechanisms import LaplaceMechanism
from ..rng import SeedLike, ensure_rng
from .catoni import CatoniEstimator, optimal_scale


def private_mean_catoni_laplace(samples: np.ndarray, epsilon: float,
                                scale: Optional[float] = None,
                                beta: float = 1.0,
                                second_moment: float = 1.0,
                                failure_probability: float = 0.05,
                                rng: SeedLike = None,
                                accountant: Optional[PrivacyAccountant] = None,
                                ) -> np.ndarray:
    """ε-DP dense mean estimate: coordinate-wise Catoni + Laplace noise.

    The robust estimate of each coordinate has per-sample influence
    bounded by ``2*sqrt(2)*s/3``, so the d-dimensional estimate has ℓ1
    sensitivity ``d * 4*sqrt(2)*s/(3n)``; Laplace noise at that scale
    yields pure ε-DP.  The resulting error grows linearly in ``d`` —
    exactly the dimension dependence the paper's high-dimensional
    algorithms avoid.

    Parameters
    ----------
    samples:
        ``(n, d)`` data matrix.
    epsilon:
        Privacy parameter.
    scale:
        Catoni scale ``s``; defaults to the Lemma-4-optimal scale for the
        given ``second_moment`` and ``failure_probability``.
    """
    x = check_matrix(samples, "samples")
    check_positive(epsilon, "epsilon")
    n, d = x.shape
    if scale is None:
        scale = optimal_scale(n, second_moment, failure_probability, beta)
    catoni = CatoniEstimator(scale=scale, beta=beta)
    estimate = catoni.estimate_columns(x)
    sensitivity_l1 = d * catoni.sensitivity(n)
    mechanism = LaplaceMechanism(epsilon=epsilon, sensitivity=sensitivity_l1)
    if accountant is not None:
        accountant.spend(mechanism.budget, "laplace", note="dense private mean")
    return mechanism.randomize(estimate, rng=ensure_rng(rng))


@dataclass(frozen=True)
class PrivateSparseMeanEstimator:
    """(ε, δ)-DP sparse mean estimation via Catoni + Peeling.

    This is the estimator implied by the paper's Section 5.2 discussion:
    treat the mean as the gradient of ``L(w) = E||x - w||^2 / 2`` at
    ``w = 0``, estimate it robustly per coordinate, then privately select
    and release the top-``s`` coordinates with Algorithm 4 (Peeling).

    Parameters
    ----------
    sparsity:
        Number of coordinates to select and release (``s >= s*``).
    epsilon, delta:
        Total privacy budget of one :meth:`estimate` call.
    scale:
        Catoni scale; ``None`` selects the Lemma-4-optimal scale.
    beta:
        Smoothing-noise inverse variance (paper uses ``O(1)``).
    second_moment:
        Known bound ``tau`` with ``E x_j^2 <= tau``.
    """

    sparsity: int
    epsilon: float
    delta: float
    scale: Optional[float] = None
    beta: float = 1.0
    second_moment: float = 1.0
    failure_probability: float = 0.05

    def __post_init__(self) -> None:
        check_positive_int(self.sparsity, "sparsity")
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta", allow_zero=False, allow_one=False)

    def estimate(self, samples: np.ndarray, rng: SeedLike = None,
                 accountant: Optional[PrivacyAccountant] = None) -> np.ndarray:
        """Return an ``s``-sparse private estimate of ``E x``."""
        from ..core.peeling import peeling  # local import to avoid a cycle

        x = check_matrix(samples, "samples")
        n, _ = x.shape
        scale = self.scale
        if scale is None:
            scale = optimal_scale(n, self.second_moment,
                                  self.failure_probability, self.beta)
        catoni = CatoniEstimator(scale=scale, beta=self.beta)
        robust = catoni.estimate_columns(x)
        sensitivity = catoni.sensitivity(n)
        result = peeling(robust, sparsity=self.sparsity, epsilon=self.epsilon,
                         delta=self.delta, noise_scale=sensitivity,
                         rng=ensure_rng(rng))
        if accountant is not None:
            accountant.spend(PrivacyBudget(self.epsilon, self.delta), "peeling",
                             note="sparse private mean")
        return result.vector

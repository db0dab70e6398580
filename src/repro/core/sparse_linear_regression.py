"""Algorithm 3 — Heavy-tailed Private Sparse Linear Regression.

An (ε, δ)-DP iterative-hard-thresholding method for the sparse linear
model ``y = <w*, x> + iota`` under bounded fourth moments (Assumption 3):

1. every data entry is shrunken at threshold ``K`` (Fan et al.);
2. the shrunken data is split into ``T`` disjoint chunks;
3. iteration ``t`` takes a gradient step on its chunk,

   .. math:: w^{t+0.5} = w^t - \\frac{\\eta_0}{m}
             \\sum_{(\\tilde x, \\tilde y) \\in \\tilde D_t}
             \\tilde x (\\langle\\tilde x, w^t\\rangle - \\tilde y),

   privately selects and releases the top-``s`` coordinates via Peeling
   (Algorithm 4) with ℓ∞ sensitivity ``2 K^2 eta_0 (sqrt(s)+1)/m``, and
   projects back onto the unit ℓ2 ball.

Disjoint chunks give (ε, δ)-DP for the whole run by parallel
composition (Theorem 6).  Theorem 7: with ``T = O(log n)``,
``K = (n eps / (s T))^{1/4}`` and ``s = O((gamma/mu)^2 s*)`` the excess
risk is ``~O(s*^2 log^2 d / (n eps))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .._validation import (
    check_dataset,
    check_positive,
    check_positive_int,
    check_probability,
)
from ..estimators.truncation import shrink_dataset
from ..geometry.projections import project_l2_ball
from ..losses.curvature import gram_top_eigenvalue
from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import PrivacyBudget
from ..rng import SeedLike, ensure_rng
from .hyperparams import SparseLinearSchedule, sparse_linear_schedule
from .peeling import peeling
from .result import FitResult


@dataclass
class HeavyTailedSparseLinearRegression:
    """(ε, δ)-DP truncated IHT for sparse linear regression (Algorithm 3).

    Parameters
    ----------
    sparsity:
        The target sparsity ``s*`` of the underlying parameter.
    epsilon, delta:
        End-to-end privacy budget.
    selection_size:
        The working sparsity ``s >= s*`` kept by Peeling; the theory
        wants ``s = O((gamma/mu)^2 s*)``.  ``None`` uses
        ``expansion * sparsity``.
    expansion:
        Multiplier used when ``selection_size`` is ``None``
        (Section 6.2 uses small integer multiples of ``s*``).
    n_iterations, threshold, step_size:
        ``T``, ``K`` and the *relative* step ``eta``; ``None`` entries
        are resolved from
        :func:`~repro.core.hyperparams.sparse_linear_schedule`
        (``T = floor(log n)``, ``K = (n eps/(s T))^{1/4}``,
        ``eta = 0.5``).  The actual gradient step is the paper's
        ``eta_0 = eta / gamma`` with ``gamma`` the smoothness constant.
    curvature:
        The smoothness constant ``gamma = lambda_max(E x x^T)``.
        ``None`` estimates it from the shrunken training data (as the
        paper's experiments implicitly do); pass a public value for
        strict end-to-end DP.
    project_radius:
        Radius of the ℓ2-ball projection ``Pi_W`` (the paper uses the
        unit ball and assumes ``||w*||_2 <= 1/2``).
    """

    sparsity: int
    epsilon: float
    delta: float
    selection_size: Optional[int] = None
    expansion: int = 2
    n_iterations: Optional[int] = None
    threshold: Optional[float] = None
    step_size: Optional[float] = None
    curvature: Optional[float] = None
    project_radius: float = 1.0

    def __post_init__(self) -> None:
        check_positive_int(self.sparsity, "sparsity")
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta", allow_zero=False, allow_one=False)
        check_positive(self.project_radius, "project_radius")

    def resolve_schedule(self, n_samples: int) -> SparseLinearSchedule:
        """The ``(T, s, K, eta_0)`` this configuration will run with."""
        base = sparse_linear_schedule(
            n_samples=n_samples, epsilon=self.epsilon, sparsity=self.sparsity,
            expansion=self.expansion,
            step_size=self.step_size if self.step_size is not None else 0.5,
        )
        T = self.n_iterations if self.n_iterations is not None else base.n_iterations
        T = max(1, min(int(T), n_samples))
        s = (self.selection_size if self.selection_size is not None
             else base.selection_size)
        s = check_positive_int(s, "selection_size")
        K = self.threshold if self.threshold is not None else base.threshold
        eta = self.step_size if self.step_size is not None else base.step_size
        return SparseLinearSchedule(n_iterations=T, selection_size=s,
                                    threshold=float(K), step_size=float(eta),
                                    chunk_size=n_samples // T)

    def fit(self, X: np.ndarray, y: np.ndarray, rng: SeedLike = None,
            callback: Optional[Callable[[int, np.ndarray], None]] = None,
            ) -> FitResult:
        """Run Algorithm 3 on the dataset ``(X, y)`` from the origin.

        ``callback(t, w_t)``, when given, is invoked after every
        iteration; it is the way to observe the iterate path.
        """
        X, y = check_dataset(X, y)
        n, d = X.shape
        rng = ensure_rng(rng)
        schedule = self.resolve_schedule(n)
        T, s, K, eta = (schedule.n_iterations, schedule.selection_size,
                        schedule.threshold, schedule.step_size)
        if s > d:
            raise ValueError(f"selection_size {s} exceeds dimension {d}")

        X_shrunk, y_shrunk = shrink_dataset(X, y, K)
        gamma = (self.curvature if self.curvature is not None
                 else gram_top_eigenvalue(X_shrunk, factor=1.0))
        eta0 = eta / gamma
        w = np.zeros(d)

        accountant = PrivacyAccountant()
        accountant.spend(PrivacyBudget(self.epsilon, self.delta), "peeling",
                         note=f"{T} Peeling calls on disjoint chunks "
                              f"(parallel composition)")

        chunk_indices = np.array_split(rng.permutation(n), T)
        supports: List[np.ndarray] = []

        for t in range(T):
            idx = chunk_indices[t]
            m = idx.size
            Xt, yt = X_shrunk[idx], y_shrunk[idx]
            residual = Xt @ w - yt
            gradient = Xt.T @ residual / m  # paper's update (no factor 2)
            w_half = w - eta0 * gradient
            # l_inf sensitivity of w_half from the Theorem 6 proof:
            # 2 K^2 eta0 (sqrt(s) + 1) / m.
            noise_scale = 2.0 * K**2 * eta0 * (math.sqrt(s) + 1.0) / m
            peeled = peeling(w_half, sparsity=s, epsilon=self.epsilon,
                             delta=self.delta, noise_scale=noise_scale, rng=rng)
            supports.append(peeled.support)
            w = project_l2_ball(peeled.vector, self.project_radius)
            if callback is not None:
                callback(t, w)

        return FitResult(
            w=w, n_iterations=T, accountant=accountant,
            advertised_budget=PrivacyBudget(self.epsilon, self.delta),
            metadata={
                "algorithm": "heavy_tailed_sparse_linear_regression",
                "threshold": K,
                "selection_size": s,
                "step_size": eta0,
                "curvature": gamma,
                "supports": supports,
            },
        )


from ..registry import SOLVERS


@SOLVERS.register("sparse_linear_regression")
def _fit_sparse_linear_regression(data, rng: SeedLike = None, *,
                                  sparsity: int, epsilon: float = 1.0,
                                  delta: float = 1e-5,
                                  selection_size: Optional[int] = None,
                                  expansion: int = 2,
                                  n_iterations: Optional[int] = None,
                                  threshold: Optional[float] = None
                                  ) -> np.ndarray:
    """Registry adapter: Algorithm 3 (DP truncated IHT), returning ``w``."""
    solver = HeavyTailedSparseLinearRegression(
        sparsity=sparsity, epsilon=epsilon, delta=delta,
        selection_size=selection_size, expansion=expansion,
        n_iterations=n_iterations, threshold=threshold)
    return solver.fit(data.features, data.labels, rng=rng).w

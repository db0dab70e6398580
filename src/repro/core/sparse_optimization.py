"""Algorithm 5 — Heavy-tailed Private Sparse Optimization.

An (ε, δ)-DP IHT-style method for general smooth / restricted-strongly-
convex losses over the sparsity constraint ``||w||_0 <= s*``
(Assumption 4).  Unlike Algorithm 3 it does not shrink the *data* —
for non-linear losses that would distort the objective — but instead
estimates each gradient coordinate with the smoothed Catoni estimator
(the Algorithm 1 machinery, at scale ``k``):

1. the data is split into ``T`` disjoint chunks;
2. iteration ``t`` forms the robust gradient estimate
   ``g̃(w_t, D_t)`` coordinate-wise from per-sample gradients,
   takes a step ``w^{t+0.5} = w^t - eta * g̃`` and privately selects /
   releases the top-``s`` coordinates via Peeling with ℓ∞ sensitivity
   ``4 sqrt(2) eta k / (3 m)``.

Theorem 8: with ``T = O((gamma_r/mu_r) log n)``, ``s = O((gamma_r/mu_r)^2 s*)``
and the balanced Catoni scale the excess risk is
``~O(tau s*^{3/2} log d sqrt(log 1/delta) / (n eps))``, near-optimal up
to ``sqrt(s*)`` against the Theorem 9 lower bound.
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
    check_vector,
)
from ..estimators.catoni import CatoniEstimator
from ..geometry.projections import hard_threshold
from ..losses.base import Loss
from ..losses.curvature import estimate_curvature
from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import PrivacyBudget
from ..rng import SeedLike, ensure_rng
from .hyperparams import SparseOptimizationSchedule, sparse_optimization_schedule
from .peeling import peeling
from .result import FitResult


@dataclass
class HeavyTailedSparseOptimizer:
    """(ε, δ)-DP robust IHT over the ℓ0 ball (Algorithm 5).

    Parameters
    ----------
    loss:
        Any :class:`~repro.losses.base.Loss` satisfying Assumption 4
        (RSC/RSS with coordinate-wise bounded gradient moments) — e.g.
        an ℓ2-regularised logistic loss.
    sparsity:
        The target sparsity ``s*``.
    epsilon, delta:
        End-to-end privacy budget.
    selection_size:
        Working sparsity ``s``; ``None`` uses ``expansion * sparsity``
        (Section 6.2 uses ``s = 2 s*``).
    scale:
        Catoni scale ``k``; ``None`` uses the Theorem 8 balance.
    tau:
        Assumed gradient coordinate second-moment bound (only used by
        the automatic scale).
    step_size:
        The *relative* step ``eta``; the actual gradient step is
        ``eta / gamma_r`` (the theorem's ``2/(3 gamma_r)`` corresponds
        to ``eta = 2/3``).
    curvature:
        The RSS constant ``gamma_r``.  ``None`` estimates it by power
        iteration on finite-difference Hessian-vector products at the
        starting point (a data-dependent hyper-parameter choice, as in
        the paper's experiments); pass a public value for strict
        end-to-end DP.
    """

    loss: Loss
    sparsity: int
    epsilon: float
    delta: float
    selection_size: Optional[int] = None
    expansion: int = 2
    n_iterations: Optional[int] = None
    scale: Optional[float] = None
    tau: float = 1.0
    beta: float = 1.0
    step_size: float = 0.5
    curvature: Optional[float] = None
    failure_probability: float = 0.05
    record_history: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.sparsity, "sparsity")
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta", allow_zero=False, allow_one=False)
        check_positive(self.step_size, "step_size")

    def resolve_schedule(self, n_samples: int,
                         dimension: int) -> SparseOptimizationSchedule:
        """The ``(T, s, k, eta)`` this configuration will run with."""
        base = sparse_optimization_schedule(
            n_samples=n_samples, epsilon=self.epsilon, sparsity=self.sparsity,
            dimension=dimension, tau=self.tau, expansion=self.expansion,
            beta=self.beta, step_size=self.step_size,
            failure_probability=self.failure_probability,
        )
        T = self.n_iterations if self.n_iterations is not None else base.n_iterations
        T = max(1, min(int(T), n_samples))
        s = (self.selection_size if self.selection_size is not None
             else base.selection_size)
        s = check_positive_int(s, "selection_size")
        k = self.scale if self.scale is not None else base.scale
        return SparseOptimizationSchedule(
            n_iterations=T, selection_size=s, scale=float(k), beta=self.beta,
            step_size=self.step_size, chunk_size=n_samples // T,
        )

    def fit(self, X: np.ndarray, y: np.ndarray, w0: Optional[np.ndarray] = None,
            rng: SeedLike = None,
            callback: Optional[Callable[[int, np.ndarray], None]] = None,
            ) -> FitResult:
        """Run Algorithm 5 on the dataset ``(X, y)``."""
        X, y = check_dataset(X, y)
        n, d = X.shape
        rng = ensure_rng(rng)
        schedule = self.resolve_schedule(n, d)
        T, s, k, eta = (schedule.n_iterations, schedule.selection_size,
                        schedule.scale, schedule.step_size)
        if s > d:
            raise ValueError(f"selection_size {s} exceeds dimension {d}")

        w = np.zeros(d) if w0 is None else check_vector(w0, "w0", dim=d).copy()
        w = hard_threshold(w, s)
        gamma = (self.curvature if self.curvature is not None
                 else estimate_curvature(self.loss, X, y, w, rng=rng))
        eta = eta / gamma
        catoni = CatoniEstimator(scale=k, beta=schedule.beta)

        accountant = PrivacyAccountant()
        accountant.spend(PrivacyBudget(self.epsilon, self.delta), "peeling",
                         note=f"{T} Peeling calls on disjoint chunks "
                              f"(parallel composition)")

        chunk_indices = np.array_split(rng.permutation(n), T)
        iterates: List[np.ndarray] = [w.copy()] if self.record_history else []
        risks: List[float] = [self.loss.value(w, X, y)] if self.record_history else []
        supports: List[np.ndarray] = []

        for t in range(T):
            idx = chunk_indices[t]
            m = idx.size
            grads = self.loss.per_sample_gradients(w, X[idx], y[idx])
            g_tilde = catoni.estimate_columns(grads)
            w_half = w - eta * g_tilde
            # l_inf sensitivity from the Theorem 8 proof:
            # ||w_half - w_half'||_inf <= eta * 4 sqrt(2) k / (3 m).
            noise_scale = 4.0 * math.sqrt(2.0) * eta * k / (3.0 * m)
            peeled = peeling(w_half, sparsity=s, epsilon=self.epsilon,
                             delta=self.delta, noise_scale=noise_scale, rng=rng)
            supports.append(peeled.support)
            w = peeled.vector
            if self.record_history:
                iterates.append(w.copy())
                risks.append(self.loss.value(w, X, y))
            if callback is not None:
                callback(t, w)

        return FitResult(
            w=w, n_iterations=T, accountant=accountant,
            advertised_budget=PrivacyBudget(self.epsilon, self.delta),
            iterates=iterates, risks=risks,
            metadata={
                "algorithm": "heavy_tailed_sparse_optimizer",
                "scale": k,
                "selection_size": s,
                "step_size": eta,
                "curvature": gamma,
                "supports": supports,
            },
        )


from ..losses.base import resolve_loss
from ..registry import SOLVERS


@SOLVERS.register("sparse_optimizer")
def _fit_sparse_optimizer(data, rng: SeedLike = None, *, loss, sparsity: int,
                          epsilon: float = 1.0, delta: float = 1e-5,
                          tau: float = 1.0,
                          selection_size: Optional[int] = None,
                          expansion: int = 2,
                          scale: Optional[float] = None) -> np.ndarray:
    """Registry adapter: Algorithm 5 (DP robust IHT), returning ``w``."""
    solver = HeavyTailedSparseOptimizer(
        resolve_loss(loss), sparsity=sparsity, epsilon=epsilon, delta=delta,
        tau=tau, selection_size=selection_size, expansion=expansion,
        scale=scale)
    return solver.fit(data.features, data.labels, rng=rng).w

"""Gradient-clipping DP-SGD (Abadi et al. 2016).

The introduction's "one potential approach is truncating or trimming the
gradient, such as in [1]. However, there is no existing convergence
result based on their algorithm" — we implement it as an honest
comparator: per-sample ℓ2 gradient clipping, Gaussian noise calibrated
by advanced composition over the iterations, optional projection onto a
constraint set.
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
from ..core.result import FitResult
from ..estimators.truncation import clip_l2
from ..losses.base import Loss
from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import PrivacyBudget
from ..rng import SeedLike, ensure_rng


@dataclass
class DPSGD:
    """(ε, δ)-DP projected SGD with per-sample ℓ2 gradient clipping.

    Parameters
    ----------
    clip_norm:
        Per-sample gradient clip ``C``; the batch mean gradient then has
        ℓ2 sensitivity ``2C / batch_size``.
    projection:
        Optional feasibility map applied after every step (e.g.
        ``lambda w: project_l1_ball(w, 1.0)``).
    batch_size:
        ``None`` runs full-batch gradient descent.
    """

    loss: Loss
    epsilon: float
    delta: float
    clip_norm: float = 1.0
    learning_rate: float = 0.1
    n_iterations: int = 50
    batch_size: Optional[int] = None
    projection: Optional[Callable[[np.ndarray], np.ndarray]] = None
    record_history: bool = False

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta", allow_zero=False, allow_one=False)
        check_positive(self.clip_norm, "clip_norm")
        check_positive(self.learning_rate, "learning_rate")
        check_positive_int(self.n_iterations, "n_iterations")

    def noise_multiplier(self) -> float:
        """Gaussian sigma (relative to sensitivity) from advanced composition.

        Each of the ``T`` steps runs the Gaussian mechanism at
        ``eps' = eps / (2 sqrt(2 T log(2/delta)))`` and
        ``delta' = delta / (2T)`` so the composed guarantee is
        ``(eps, delta)``.
        """
        T = self.n_iterations
        eps_step = self.epsilon / (2.0 * math.sqrt(2.0 * T * math.log(2.0 / self.delta)))
        delta_step = self.delta / (2.0 * T)
        return math.sqrt(2.0 * math.log(1.25 / delta_step)) / eps_step

    def fit(self, X: np.ndarray, y: np.ndarray,
            w0: Optional[np.ndarray] = None, rng: SeedLike = None) -> FitResult:
        """Run DP-SGD on ``(X, y)``."""
        X, y = check_dataset(X, y)
        n, d = X.shape
        rng = ensure_rng(rng)
        w = np.zeros(d) if w0 is None else check_vector(w0, "w0", dim=d).copy()
        if self.projection is not None:
            w = self.projection(w)
        batch = n if self.batch_size is None else min(self.batch_size, n)
        sigma_rel = self.noise_multiplier()
        sensitivity = 2.0 * self.clip_norm / batch
        sigma = sigma_rel * sensitivity

        accountant = PrivacyAccountant()
        accountant.spend(PrivacyBudget(self.epsilon, self.delta), "gaussian",
                         note=f"advanced composition over {self.n_iterations} steps")

        iterates: List[np.ndarray] = [w.copy()] if self.record_history else []
        risks: List[float] = [self.loss.value(w, X, y)] if self.record_history else []
        for _ in range(self.n_iterations):
            idx = rng.choice(n, size=batch, replace=False) if batch < n else np.arange(n)
            grads = self.loss.per_sample_gradients(w, X[idx], y[idx])
            clipped = clip_l2(grads, self.clip_norm)
            noisy_grad = clipped.mean(axis=0) + rng.normal(scale=sigma, size=d)
            w = w - self.learning_rate * noisy_grad
            if self.projection is not None:
                w = self.projection(w)
            if self.record_history:
                iterates.append(w.copy())
                risks.append(self.loss.value(w, X, y))

        return FitResult(
            w=w, n_iterations=self.n_iterations, accountant=accountant,
            advertised_budget=PrivacyBudget(self.epsilon, self.delta),
            iterates=iterates, risks=risks,
            metadata={"algorithm": "dp_sgd", "clip_norm": self.clip_norm,
                      "sigma": sigma},
        )


from ..geometry.projections import project_l1_ball
from ..losses.base import resolve_loss
from ..registry import SOLVERS


@SOLVERS.register("dp_sgd")
def _fit_dp_sgd(data, rng: SeedLike = None, *, loss="squared",
                epsilon: float = 1.0, delta: float = 1e-5,
                clip_norm: float = 1.0, learning_rate: float = 0.1,
                n_iterations: int = 50, batch_size: Optional[int] = None,
                l1_radius: Optional[float] = None) -> np.ndarray:
    """Registry adapter: gradient-clipping DP-SGD (Abadi et al.).

    ``l1_radius`` (when given) adds per-step projection onto the ℓ1
    ball, matching the constrained experiments of the ablations.
    """
    projection = (None if l1_radius is None
                  else lambda v: project_l1_ball(v, l1_radius))
    solver = DPSGD(resolve_loss(loss), epsilon=epsilon, delta=delta,
                   clip_norm=clip_norm, learning_rate=learning_rate,
                   n_iterations=n_iterations, batch_size=batch_size,
                   projection=projection)
    return solver.fit(data.features, data.labels, rng=rng).w

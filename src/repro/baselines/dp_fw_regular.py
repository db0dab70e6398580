"""DP Frank–Wolfe for regular (bounded-gradient) data — Talwar et al. 2015.

The method the paper generalises: assumes the loss is ℓ1-Lipschitz (its
gradient has bounded ℓ∞ norm, enforced here by clipping per-sample
gradients entry-wise at ``lipschitz_bound``) and selects Frank–Wolfe
vertices with the exponential mechanism at per-iteration budget
``eps / (2 sqrt(2 T log(1/delta)))`` over the *full* dataset, composing
by the advanced composition theorem.

On heavy-tailed data the clipping bound is either violated (breaking the
DP guarantee) or must be set so large that the mechanism's noise swamps
the signal — the failure mode motivating the paper.  The ablation bench
``test_ablation_catoni_vs_clipping`` measures this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .._validation import (check_dataset, check_positive, check_probability,
                           check_vector)
from ..core.hyperparams import classic_fw_steps
from ..core.result import FitResult
from ..geometry.polytope import Polytope
from ..losses.base import Loss
from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import PrivacyBudget
from ..privacy.mechanisms import ExponentialMechanism
from ..rng import SeedLike, ensure_rng


@dataclass
class RegularDPFrankWolfe:
    """(ε, δ)-DP Frank–Wolfe with entry-wise gradient clipping.

    Parameters
    ----------
    lipschitz_bound:
        Entry-wise clip level ``L``: per-sample gradients are clipped to
        ``[-L, L]`` per coordinate, making the score sensitivity
        ``||W||_1 * L / n`` regardless of the data's tails.
    """

    loss: Loss
    polytope: Polytope
    epsilon: float
    delta: float
    lipschitz_bound: float = 1.0
    n_iterations: int = 50
    record_history: bool = False

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta", allow_zero=False, allow_one=False)
        check_positive(self.lipschitz_bound, "lipschitz_bound")

    def fit(self, X: np.ndarray, y: np.ndarray,
            w0: Optional[np.ndarray] = None, rng: SeedLike = None) -> FitResult:
        """Run clipped DP-FW on ``(X, y)``."""
        X, y = check_dataset(X, y)
        n, d = X.shape
        rng = ensure_rng(rng)
        T = self.n_iterations
        steps = classic_fw_steps(T)
        eps_step = self.epsilon / (2.0 * math.sqrt(2.0 * T * math.log(1.0 / self.delta)))
        diameter = self.polytope.l1_diameter()
        # One sample change moves the clipped mean gradient by at most
        # 2L/n per coordinate, hence the score by diameter * L / n
        # (||v||_1 <= diameter/2 and the gradient gap is <= 2L/n).
        sensitivity = diameter * self.lipschitz_bound / n
        mechanism = ExponentialMechanism(epsilon=eps_step, sensitivity=sensitivity)

        accountant = PrivacyAccountant()
        accountant.spend(PrivacyBudget(self.epsilon, self.delta), "exponential",
                         note=f"advanced composition over {T} iterations")

        w = (self.polytope.initial_point() if w0 is None
             else check_vector(w0, "w0", dim=d).copy())
        iterates: List[np.ndarray] = [w.copy()] if self.record_history else []
        risks: List[float] = [self.loss.value(w, X, y)] if self.record_history else []
        for t in range(T):
            grads = self.loss.per_sample_gradients(w, X, y)
            clipped = np.clip(grads, -self.lipschitz_bound, self.lipschitz_bound)
            g_bar = clipped.mean(axis=0)
            scores = self.polytope.vertex_scores(g_bar)
            index = mechanism.select(scores, rng=rng)
            vertex = self.polytope.vertex(index)
            w = (1.0 - steps[t]) * w + steps[t] * vertex
            if self.record_history:
                iterates.append(w.copy())
                risks.append(self.loss.value(w, X, y))

        return FitResult(
            w=w, n_iterations=T, accountant=accountant,
            advertised_budget=PrivacyBudget(self.epsilon, self.delta),
            iterates=iterates, risks=risks,
            metadata={"algorithm": "regular_dp_fw",
                      "lipschitz_bound": self.lipschitz_bound,
                      "per_iteration_epsilon": eps_step},
        )


from ..geometry.polytope import L1Ball
from ..losses.base import resolve_loss
from ..registry import SOLVERS


@SOLVERS.register("regular_dp_fw")
def _fit_regular_dp_fw(data, rng: SeedLike = None, *, loss="squared",
                       epsilon: float = 1.0, delta: float = 1e-5,
                       lipschitz_bound: float = 1.0, n_iterations: int = 50,
                       l1_radius: float = 1.0) -> np.ndarray:
    """Registry adapter: clipped-gradient DP Frank–Wolfe (Talwar et al.)."""
    solver = RegularDPFrankWolfe(
        resolve_loss(loss), L1Ball(data.dimension, radius=l1_radius),
        epsilon=epsilon, delta=delta, lipschitz_bound=lipschitz_bound,
        n_iterations=n_iterations)
    return solver.fit(data.features, data.labels, rng=rng).w

"""Algorithm 2 — Heavy-tailed Private LASSO.

An (ε, δ)-DP Frank–Wolfe method for the squared loss over the ℓ1 ball
under bounded *fourth* moments (Assumption 3):

1. every data entry is shrunken at threshold ``K``:
   ``x̃ = sign(x) min(|x|, K)`` (after which the loss is ℓ1-Lipschitz
   with constant ``O(K^2)``);
2. ``T`` Frank–Wolfe iterations each run the exponential mechanism over
   the vertex set with score ``-<v, g̃(w, D̃)>``, sensitivity
   ``8 ||W||_1 K^2 / n`` and per-iteration budget
   ``eps / (2 sqrt(2 T log(1/delta)))``.  The gradient
   ``g̃ = 2 X̃ᵀ(X̃ w − ỹ) / n`` is evaluated in Gram form
   ``2 (G w − c) / n`` with ``G = X̃ᵀX̃`` and ``c = X̃ᵀỹ`` computed once,
   so an iteration costs ``O(d²)`` instead of two passes over the data;
3. the advanced composition theorem (Lemma 2) makes the whole run
   (ε, δ)-DP — the full dataset is reused every iteration, unlike
   Algorithm 1.

Theorem 5: with ``K = (n eps)^{1/4} / T^{1/8}`` the excess population
risk is ``~O((sqrt(log 1/delta) log(dn/zeta))^{4/5} / (n eps)^{2/5})``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .._validation import (check_dataset, check_positive, check_probability,
                           check_vector)
from ..estimators.truncation import shrink_dataset
from ..geometry.polytope import Polytope
from ..losses.squared import SquaredLoss
from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import PrivacyBudget
from ..privacy.mechanisms import ExponentialMechanism
from ..rng import SeedLike, ensure_rng
from .hyperparams import LassoSchedule, classic_fw_steps, lasso_schedule
from .result import FitResult


@dataclass
class HeavyTailedPrivateLasso:
    """(ε, δ)-DP Frank–Wolfe for LASSO with entry-wise shrunken data.

    Parameters
    ----------
    polytope:
        The ℓ1-ball constraint (any vertex polytope is accepted; the
        paper's analysis is for the ℓ1 ball).
    epsilon, delta:
        End-to-end privacy budget.
    n_iterations, threshold:
        ``T`` and the shrinkage level ``K``; ``None`` selects them from
        :func:`~repro.core.hyperparams.lasso_schedule`.
    schedule_mode:
        ``"paper"`` (Section 6.2 ``T = (n eps)^{2/5}``) or ``"theory"``.
    """

    polytope: Polytope
    epsilon: float
    delta: float
    n_iterations: Optional[int] = None
    threshold: Optional[float] = None
    failure_probability: float = 0.05
    schedule_mode: str = "paper"
    step_sizes: Optional[Sequence[float]] = None
    record_history: bool = False

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta", allow_zero=False, allow_one=False)
        self._loss = SquaredLoss()

    def resolve_schedule(self, n_samples: int) -> LassoSchedule:
        """The ``(T, K)`` pair this configuration will run with."""
        schedule = lasso_schedule(
            n_samples=n_samples, epsilon=self.epsilon, delta=self.delta,
            dimension=self.polytope.dimension,
            failure_probability=self.failure_probability, mode=self.schedule_mode,
        )
        T = self.n_iterations if self.n_iterations is not None else schedule.n_iterations
        T = max(1, int(T))
        K = self.threshold if self.threshold is not None else schedule.threshold
        return LassoSchedule(n_iterations=T, threshold=float(K))

    def per_iteration_epsilon(self, n_iterations: int) -> float:
        """The paper's per-step budget ``eps / (2 sqrt(2 T log(1/delta)))``."""
        return self.epsilon / (2.0 * math.sqrt(2.0 * n_iterations * math.log(1.0 / self.delta)))

    def fit(self, X: np.ndarray, y: np.ndarray, w0: Optional[np.ndarray] = None,
            rng: SeedLike = None,
            callback: Optional[Callable[[int, np.ndarray], None]] = None,
            ) -> FitResult:
        """Run Algorithm 2 on the dataset ``(X, y)``."""
        X, y = check_dataset(X, y)
        n, d = X.shape
        if d != self.polytope.dimension:
            raise ValueError(
                f"data dimension {d} does not match polytope dimension "
                f"{self.polytope.dimension}"
            )
        rng = ensure_rng(rng)
        schedule = self.resolve_schedule(n)
        T, K = schedule.n_iterations, schedule.threshold
        steps = list(self.step_sizes) if self.step_sizes is not None else classic_fw_steps(T)
        if len(steps) < T:
            raise ValueError(f"need {T} step sizes, got {len(steps)}")

        X_shrunk, y_shrunk = shrink_dataset(X, y, K)
        gram = X_shrunk.T @ X_shrunk
        cross = X_shrunk.T @ y_shrunk
        diameter = self.polytope.l1_diameter()
        # Sensitivity of u(D, v) from the Theorem 4 proof: 8 ||W||_1 K^2 / n
        # (with ||W||_1 = 2 for the unit l1 ball the paper's constant).
        sensitivity = 4.0 * diameter * K**2 / n
        eps_step = self.per_iteration_epsilon(T)
        mechanism = ExponentialMechanism(epsilon=eps_step, sensitivity=sensitivity)

        accountant = PrivacyAccountant()
        accountant.spend(PrivacyBudget(self.epsilon, self.delta), "exponential",
                         note=f"advanced composition over {T} iterations "
                              f"at eps'={eps_step:.4g}")

        w = (self.polytope.initial_point() if w0 is None
             else check_vector(w0, "w0", dim=d).copy())
        iterates: List[np.ndarray] = [w.copy()] if self.record_history else []
        risks: List[float] = [self._loss.value(w, X, y)] if self.record_history else []
        selected_vertices: List[int] = []

        for t in range(T):
            g_tilde = 2.0 * (gram @ w - cross) / n
            scores = self.polytope.vertex_scores(g_tilde)
            vertex_index = mechanism.select(scores, rng=rng)
            vertex = self.polytope.vertex(vertex_index)
            selected_vertices.append(vertex_index)
            w = (1.0 - steps[t]) * w + steps[t] * vertex
            if self.record_history:
                iterates.append(w.copy())
                risks.append(self._loss.value(w, X, y))
            if callback is not None:
                callback(t, w)

        return FitResult(
            w=w, n_iterations=T, accountant=accountant,
            advertised_budget=PrivacyBudget(self.epsilon, self.delta),
            iterates=iterates, risks=risks,
            metadata={
                "algorithm": "heavy_tailed_private_lasso",
                "threshold": K,
                "per_iteration_epsilon": eps_step,
                "selected_vertices": selected_vertices,
                "schedule_mode": self.schedule_mode,
            },
        )


from ..geometry.polytope import L1Ball
from ..registry import SOLVERS


@SOLVERS.register("private_lasso")
def _fit_private_lasso(data, rng: SeedLike = None, *, epsilon: float = 1.0,
                       delta: float = 1e-5,
                       n_iterations: Optional[int] = None,
                       threshold: Optional[float] = None,
                       schedule_mode: str = "paper",
                       l1_radius: float = 1.0) -> np.ndarray:
    """Registry adapter: Algorithm 2 on the ℓ1 ball, returning ``w``."""
    solver = HeavyTailedPrivateLasso(
        L1Ball(data.dimension, radius=l1_radius), epsilon=epsilon,
        delta=delta, n_iterations=n_iterations, threshold=threshold,
        schedule_mode=schedule_mode)
    return solver.fit(data.features, data.labels, rng=rng).w

"""Non-private Frank–Wolfe (Jaggi 2013).

Serves two roles in the reproduction:

* the *non-private reference curve* in Figures 1(c), 2(c), 5(c), 6(c);
* the solver the paper uses to compute ``w* = argmin_W L(w)`` on the
  real-data experiments ("we use the non-private Frank-Wolfe algorithm
  to get the optimal parameter" — Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_dataset, check_positive_int
from ..geometry.polytope import Polytope
from ..losses.base import Loss
from ..core.hyperparams import classic_fw_steps


@dataclass
class FrankWolfe:
    """Deterministic Frank–Wolfe over a vertex polytope.

    Parameters
    ----------
    loss, polytope:
        Objective and constraint set.
    n_iterations:
        Iteration count ``T``; the classic ``2/(t+2)`` step schedule
        gives the standard ``O(1/T)`` primal rate for smooth convex
        losses.
    record_history:
        When set, ``fit`` stores the iterate path on ``self.iterates_``
        and the training risk along it on ``self.risks_``.
    """

    loss: Loss
    polytope: Polytope
    n_iterations: int = 100
    record_history: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.n_iterations, "n_iterations")

    def fit(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Minimise the empirical risk from ``polytope.initial_point()``."""
        X, y = check_dataset(X, y)
        w = self.polytope.initial_point()
        steps = classic_fw_steps(self.n_iterations)
        if self.record_history:
            self.iterates_ = [w.copy()]
            self.risks_ = [self.loss.value(w, X, y)]
        for t in range(self.n_iterations):
            gradient = self.loss.gradient(w, X, y)
            _, vertex = self.polytope.linear_minimizer(gradient)
            w = (1.0 - steps[t]) * w + steps[t] * vertex
            if self.record_history:
                self.iterates_.append(w.copy())
                self.risks_.append(self.loss.value(w, X, y))
        return w


from ..geometry.polytope import L1Ball
from ..losses.base import resolve_loss
from ..registry import SOLVERS


@SOLVERS.register("frank_wolfe")
def _fit_frank_wolfe(data, rng=None, *, loss="squared",
                     n_iterations: int = 100,
                     l1_radius: float = 1.0) -> np.ndarray:
    """Registry adapter: non-private Frank–Wolfe on the ℓ1 ball.

    ``rng`` is accepted for the common solver signature and ignored —
    the method is deterministic.
    """
    solver = FrankWolfe(resolve_loss(loss),
                        L1Ball(data.dimension, radius=l1_radius),
                        n_iterations=n_iterations)
    return solver.fit(data.features, data.labels)

"""Plain (projected) gradient descent — the simplest non-private reference."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .._validation import check_dataset, check_positive, check_positive_int
from ..losses.base import Loss


@dataclass
class GradientDescent:
    """Full-batch (projected) gradient descent.

    Parameters
    ----------
    projection:
        Optional feasibility map applied after each step.
    tol:
        Early-stop when the gradient ℓ2 norm falls below ``tol``.
    """

    loss: Loss
    learning_rate: float = 0.1
    n_iterations: int = 200
    projection: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tol: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.learning_rate, "learning_rate")
        check_positive_int(self.n_iterations, "n_iterations")

    def fit(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Minimise the empirical risk from the (projected) origin."""
        X, y = check_dataset(X, y)
        w = np.zeros(X.shape[1])
        if self.projection is not None:
            w = self.projection(w)
        for _ in range(self.n_iterations):
            gradient = self.loss.gradient(w, X, y)
            if self.tol > 0 and float(np.linalg.norm(gradient)) < self.tol:
                break
            w = w - self.learning_rate * gradient
            if self.projection is not None:
                w = self.projection(w)
        return w


from ..losses.base import resolve_loss
from ..registry import SOLVERS


@SOLVERS.register("gradient_descent")
def _fit_gradient_descent(data, rng=None, *, loss="squared",
                          learning_rate: float = 0.1,
                          n_iterations: int = 200) -> np.ndarray:
    """Registry adapter: plain (non-private) gradient descent.

    ``rng`` is accepted for the common solver signature and ignored.
    """
    solver = GradientDescent(resolve_loss(loss), learning_rate=learning_rate,
                             n_iterations=n_iterations)
    return solver.fit(data.features, data.labels)

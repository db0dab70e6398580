"""Non-private iterative hard thresholding (Jain, Tewari, Kar 2014).

The non-private reference for Algorithms 3 and 5: full-batch gradient
descent followed by projection onto the ℓ0 ball.  The sparse benches
use it both as the "non-private" series and to compute a near-optimal
``w*`` on finite data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._validation import check_dataset, check_positive, check_positive_int
from ..geometry.projections import hard_threshold, project_l2_ball
from ..losses.base import Loss


@dataclass
class IterativeHardThresholding:
    """Full-batch IHT: ``w <- H_s(w - eta * grad L(w))``.

    Parameters
    ----------
    sparsity:
        The projection sparsity ``s``.
    project_radius:
        Optional ℓ2-ball radius applied after thresholding (``None``
        disables the projection; Algorithm 3's analysis keeps iterates in
        the unit ball).
    """

    loss: Loss
    sparsity: int
    learning_rate: float = 0.5
    n_iterations: int = 100
    project_radius: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive_int(self.sparsity, "sparsity")
        check_positive(self.learning_rate, "learning_rate")
        check_positive_int(self.n_iterations, "n_iterations")

    def fit(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Minimise the empirical risk over the ℓ0 ball from the origin."""
        X, y = check_dataset(X, y)
        w = np.zeros(X.shape[1])
        for _ in range(self.n_iterations):
            gradient = self.loss.gradient(w, X, y)
            w = hard_threshold(w - self.learning_rate * gradient, self.sparsity)
            if self.project_radius is not None:
                w = project_l2_ball(w, self.project_radius)
        return w


from ..losses.base import resolve_loss
from ..registry import SOLVERS


@SOLVERS.register("iht")
def _fit_iht(data, rng=None, *, loss="squared", sparsity: int,
             learning_rate: float = 0.5, n_iterations: int = 100,
             project_radius: Optional[float] = None) -> np.ndarray:
    """Registry adapter: non-private iterative hard thresholding.

    ``rng`` is accepted for the common solver signature and ignored.
    """
    solver = IterativeHardThresholding(
        resolve_loss(loss), sparsity=sparsity, learning_rate=learning_rate,
        n_iterations=n_iterations, project_radius=project_radius)
    return solver.fit(data.features, data.labels)

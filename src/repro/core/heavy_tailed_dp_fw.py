"""Algorithm 1 — Heavy-tailed DP-FW (the paper's primary contribution).

An ε-DP Frank–Wolfe method over a polytope ``W = conv(V)`` for losses
whose *gradient coordinates* have bounded second moments (Assumption 1)
but may be unbounded pointwise:

1. the dataset is split into ``T`` disjoint chunks (one per iteration) —
   this is the device that makes the privacy proof go through without
   advanced composition (pure ε-DP via parallel composition);
2. at iteration ``t``, each coordinate of the population gradient is
   estimated from the chunk's per-sample gradients by the smoothed
   Catoni estimator (eqs. 2–5), whose per-sample influence is bounded by
   ``2√2·s/3`` — hence the whole estimate has ℓ∞ sensitivity
   ``4√2·s/(3m)``;
3. a Frank–Wolfe vertex is selected by the exponential mechanism with
   score ``u(D_t, v) = -<v, g̃>`` and sensitivity
   ``||W||_1 · 4√2·s/(3m)``;
4. the iterate moves toward the selected vertex with the classic step
   ``eta_{t-1} = 2/(t+2)``.

Theorem 2: with the theory schedule the excess population risk is
``~O(||W||_1 (alpha tau log(n|V|d/zeta))^{1/3} / (n eps)^{1/3})`` with
probability ``1 - zeta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .._validation import check_dataset, check_positive
from ..estimators.catoni import CatoniEstimator
from ..estimators.weak_moments import (
    TruncatedMeanEstimator,
    optimal_truncation_threshold,
)
from ..geometry.polytope import Polytope
from ..losses.base import Loss
from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import PrivacyBudget
from ..privacy.mechanisms import ExponentialMechanism
from ..rng import SeedLike, ensure_rng
from .hyperparams import DPFWSchedule, classic_fw_steps, dpfw_schedule
from .result import FitResult


@dataclass
class HeavyTailedDPFW:
    """ε-DP Frank–Wolfe for heavy-tailed gradients over a polytope.

    Parameters
    ----------
    loss:
        Any :class:`~repro.losses.base.Loss`; Assumption 1 asks its
        population risk to be smooth with coordinate-wise bounded
        gradient second moments.
    polytope:
        The constraint set ``W`` as a vertex polytope (its ℓ1 diameter
        enters the exponential-mechanism sensitivity).
    epsilon:
        Pure-DP privacy parameter of the whole run.
    n_iterations, scale:
        ``T`` and the Catoni scale ``s``.  ``None`` selects them from
        :func:`~repro.core.hyperparams.dpfw_schedule` at fit time.
    tau:
        Assumed bound on the gradient coordinate second moments, used
        only by the automatic schedule.
    beta:
        Smoothing-noise inverse variance (the paper uses ``O(1)``).
    schedule_mode:
        ``"theory"`` (Theorem 2 constants) or ``"paper"`` (Section 6.2).
    gradient_estimator:
        ``"catoni"`` (the paper's smoothed estimator, needs bounded
        *second* moments) or ``"truncated"`` (shrink-then-average, the
        conclusion's weak-moment extension — works whenever the
        ``moment_order``-th moment is bounded, ``moment_order in (1, 2]``).
    moment_order:
        Only for ``gradient_estimator="truncated"``: the assumed moment
        ``1 + v``; the automatic threshold is
        ``(m eps tau)^{1/(1+v)}`` per chunk.
    """

    loss: Loss
    polytope: Polytope
    epsilon: float
    n_iterations: Optional[int] = None
    scale: Optional[float] = None
    tau: float = 1.0
    beta: float = 1.0
    failure_probability: float = 0.05
    schedule_mode: str = "theory"
    gradient_estimator: str = "catoni"
    moment_order: float = 2.0

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        if self.gradient_estimator not in ("catoni", "truncated"):
            raise ValueError(
                "gradient_estimator must be 'catoni' or 'truncated', got "
                f"{self.gradient_estimator!r}"
            )

    def resolve_schedule(self, n_samples: int) -> DPFWSchedule:
        """The ``(T, s)`` pair this configuration will run with."""
        schedule = dpfw_schedule(
            n_samples=n_samples, epsilon=self.epsilon,
            dimension=self.polytope.dimension,
            n_vertices=self.polytope.n_vertices, tau=self.tau,
            beta=self.beta, failure_probability=self.failure_probability,
            mode=self.schedule_mode,
        )
        T = self.n_iterations if self.n_iterations is not None else schedule.n_iterations
        T = max(1, min(int(T), n_samples))
        s = self.scale if self.scale is not None else schedule.scale
        return DPFWSchedule(n_iterations=T, scale=float(s), beta=self.beta,
                            chunk_size=n_samples // T)

    def fit(self, X: np.ndarray, y: np.ndarray, rng: SeedLike = None,
            callback: Optional[Callable[[int, np.ndarray], None]] = None,
            ) -> FitResult:
        """Run Algorithm 1 on ``(X, y)`` from ``polytope.initial_point()``.

        ``callback(t, w_t)``, when given, is invoked after every
        iteration; it is the way to observe the iterate path.
        """
        X, y = check_dataset(X, y)
        n, d = X.shape
        if d != self.polytope.dimension:
            raise ValueError(
                f"data dimension {d} does not match polytope dimension "
                f"{self.polytope.dimension}"
            )
        rng = ensure_rng(rng)
        schedule = self.resolve_schedule(n)
        T = schedule.n_iterations
        steps = classic_fw_steps(T)

        w = self.polytope.initial_point()
        if self.gradient_estimator == "catoni":
            estimator = CatoniEstimator(scale=schedule.scale, beta=schedule.beta)
        else:
            threshold = (self.scale if self.scale is not None
                         else optimal_truncation_threshold(
                             max(schedule.chunk_size, 1), self.epsilon,
                             self.moment_order, self.tau))
            estimator = TruncatedMeanEstimator(threshold=threshold)
        diameter = self.polytope.l1_diameter()
        accountant = PrivacyAccountant()
        # Disjoint chunks => parallel composition: the whole run is eps-DP.
        accountant.spend(PrivacyBudget(self.epsilon, 0.0), "exponential",
                         note=f"{T} iterations on disjoint chunks (parallel composition)")

        chunk_indices = np.array_split(rng.permutation(n), T)
        selected_vertices: List[int] = []

        for t in range(T):
            idx = chunk_indices[t]
            m = idx.size
            grads = self.loss.per_sample_gradients(w, X[idx], y[idx])
            g_tilde = estimator.estimate_columns(grads)
            sensitivity = diameter * estimator.sensitivity(m)
            mechanism = ExponentialMechanism(epsilon=self.epsilon,
                                             sensitivity=sensitivity)
            scores = self.polytope.vertex_scores(g_tilde)
            vertex_index = mechanism.select(scores, rng=rng)
            vertex = self.polytope.vertex(vertex_index)
            selected_vertices.append(vertex_index)
            w = (1.0 - steps[t]) * w + steps[t] * vertex
            if callback is not None:
                callback(t, w)

        return FitResult(
            w=w, n_iterations=T, accountant=accountant,
            advertised_budget=PrivacyBudget(self.epsilon, 0.0),
            metadata={
                "algorithm": "heavy_tailed_dp_fw",
                "gradient_estimator": self.gradient_estimator,
                "scale": schedule.scale,
                "beta": schedule.beta,
                "chunk_size": schedule.chunk_size,
                "selected_vertices": selected_vertices,
                "schedule_mode": self.schedule_mode,
            },
        )


from ..geometry.polytope import L1Ball
from ..losses.base import resolve_loss
from ..registry import SOLVERS


@SOLVERS.register("heavy_tailed_dp_fw")
def _fit_heavy_tailed_dp_fw(data, rng: SeedLike = None, *, loss="squared",
                            epsilon: float = 1.0, tau: float = 5.0,
                            schedule_mode: str = "theory",
                            n_iterations: Optional[int] = None,
                            scale: Optional[float] = None, beta: float = 1.0,
                            gradient_estimator: str = "catoni",
                            moment_order: float = 2.0,
                            l1_radius: float = 1.0) -> np.ndarray:
    """Registry adapter: Algorithm 1 on the ℓ1 ball, returning ``w``.

    ``loss`` is a registered loss name (or mapping / instance, see
    :func:`repro.losses.resolve_loss`); the constraint dimension comes
    from the data.  Remaining keywords mirror
    :class:`HeavyTailedDPFW`'s fields.
    """
    solver = HeavyTailedDPFW(
        resolve_loss(loss), L1Ball(data.dimension, radius=l1_radius),
        epsilon=epsilon, tau=tau, schedule_mode=schedule_mode,
        n_iterations=n_iterations, scale=scale, beta=beta,
        gradient_estimator=gradient_estimator, moment_order=moment_order)
    return solver.fit(data.features, data.labels, rng=rng).w

"""Theory-driven hyper-parameter schedules.

The paper's theorems prescribe the iteration counts, truncation scales
and thresholds as explicit functions of ``(n, epsilon, d, ...)``; its
experimental section (6.2) uses slightly simplified versions of the same
schedules.  Both variants are implemented here so the core algorithms,
the benches and the ablations all draw parameters from one place.

Every function returns a small frozen dataclass so results are
self-documenting in experiment metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._validation import check_positive, check_positive_int, check_probability
from ..estimators.truncation import lasso_threshold, sparse_regression_threshold


def _clamp_iterations(T: float, n_samples: int, minimum: int = 1) -> int:
    """Round ``T`` and keep at least one sample per split chunk."""
    T_int = max(minimum, int(T))
    return max(minimum, min(T_int, n_samples))


@dataclass(frozen=True)
class DPFWSchedule:
    """Parameters for Algorithm 1 (Heavy-tailed DP-FW, Theorem 2)."""

    n_iterations: int
    scale: float
    beta: float
    chunk_size: int


def dpfw_schedule(n_samples: int, epsilon: float, dimension: int,
                  n_vertices: int, tau: float = 1.0, smoothness: float = 1.0,
                  beta: float = 1.0, failure_probability: float = 0.05,
                  mode: str = "theory") -> DPFWSchedule:
    """Theorem 2 / Section 6.2 schedule for Algorithm 1.

    ``mode="theory"`` uses ``T = (n eps alpha^2 / (tau log(|V| d / zeta)))^{1/3}``
    and ``s = sqrt(n eps tau / (T log(|V| d T / zeta)))``.

    ``mode="paper"`` uses the experimental section's simpler
    ``T = floor((n eps)^{1/3})`` with the same theory-driven ``s`` (the
    paper's listed ``s = floor(n eps)`` reads as a typo — it would blow
    the exponential-mechanism noise up by a factor of ``T`` and
    contradicts Theorem 2's ``s = O(sqrt(n eps tau / (T log ...)))``; we
    keep the theorem's scale).
    """
    check_positive_int(n_samples, "n_samples")
    check_positive(epsilon, "epsilon")
    check_positive_int(dimension, "dimension")
    check_positive_int(n_vertices, "n_vertices")
    check_positive(tau, "tau")
    check_positive(smoothness, "smoothness")
    check_positive(beta, "beta")
    zeta = check_probability(failure_probability, "failure_probability",
                             allow_zero=False, allow_one=False)
    n_eps = n_samples * epsilon
    log_term = math.log(max(n_vertices * dimension / zeta, math.e))
    if mode == "paper":
        T = _clamp_iterations(n_eps ** (1.0 / 3.0), n_samples)
    elif mode == "theory":
        T = _clamp_iterations((n_eps * smoothness**2 / (tau * log_term)) ** (1.0 / 3.0),
                              n_samples)
    else:
        raise ValueError(f"mode must be 'theory' or 'paper', got {mode!r}")
    log_term_T = math.log(max(n_vertices * dimension * T / zeta, math.e))
    scale = math.sqrt(n_eps * tau / (T * log_term_T))
    return DPFWSchedule(n_iterations=T, scale=scale, beta=beta,
                        chunk_size=n_samples // T)


@dataclass(frozen=True)
class LassoSchedule:
    """Parameters for Algorithm 2 (Heavy-tailed Private LASSO, Theorem 5)."""

    n_iterations: int
    threshold: float


def lasso_schedule(n_samples: int, epsilon: float, delta: float,
                   dimension: int, smoothness: float = 1.0,
                   failure_probability: float = 0.05,
                   mode: str = "paper") -> LassoSchedule:
    """Theorem 5 / Section 6.2 schedule for Algorithm 2.

    ``mode="paper"``: ``T = (n eps)^{2/5}`` (Section 6.2).
    ``mode="theory"``: Theorem 5's
    ``T = (sqrt(n eps) * gamma / (sqrt(log 1/delta) * log(d/zeta)))^{4/5}``.
    Both use ``K = (n eps)^{1/4} / T^{1/8}``.
    """
    check_positive_int(n_samples, "n_samples")
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta", allow_zero=False, allow_one=False)
    check_positive_int(dimension, "dimension")
    zeta = check_probability(failure_probability, "failure_probability",
                             allow_zero=False, allow_one=False)
    n_eps = n_samples * epsilon
    if mode == "paper":
        T = _clamp_iterations(n_eps ** 0.4, n_samples)
    elif mode == "theory":
        log_delta = math.sqrt(math.log(1.0 / delta))
        log_d = math.log(max(dimension / zeta, math.e))
        T = _clamp_iterations((math.sqrt(n_eps) * smoothness / (log_delta * log_d)) ** 0.8,
                              n_samples)
    else:
        raise ValueError(f"mode must be 'theory' or 'paper', got {mode!r}")
    return LassoSchedule(n_iterations=T, threshold=lasso_threshold(n_samples, epsilon, T))


@dataclass(frozen=True)
class SparseLinearSchedule:
    """Parameters for Algorithm 3 (Theorem 7 / Section 6.2)."""

    n_iterations: int
    selection_size: int
    threshold: float
    step_size: float
    chunk_size: int


def sparse_linear_schedule(n_samples: int, epsilon: float, sparsity: int,
                           expansion: int = 2, step_size: float = 0.5,
                           mode: str = "paper") -> SparseLinearSchedule:
    """Algorithm 3 schedule: ``s = c*s*``, ``T = floor(log n)``,
    ``K = (n eps / (s T))^{1/4}``, ``eta = 0.5`` (Section 6.2).

    ``mode="theory"`` differs only in that callers supply the condition
    number through ``expansion ~ (gamma/mu)^2`` — the theorem's
    ``s >= 72 (gamma/mu)^2 s*`` — and the step ``eta0 = 2/(3 gamma)`` is
    applied by the solver (which knows ``gamma``).
    """
    check_positive_int(n_samples, "n_samples")
    check_positive(epsilon, "epsilon")
    check_positive_int(sparsity, "sparsity")
    check_positive_int(expansion, "expansion")
    check_positive(step_size, "step_size")
    if mode not in ("paper", "theory"):
        raise ValueError(f"mode must be 'theory' or 'paper', got {mode!r}")
    T = _clamp_iterations(math.log(max(n_samples, 3)), n_samples)
    s = expansion * sparsity
    K = sparse_regression_threshold(n_samples, epsilon, s, T)
    return SparseLinearSchedule(n_iterations=T, selection_size=s, threshold=K,
                                step_size=step_size, chunk_size=n_samples // T)


@dataclass(frozen=True)
class SparseOptimizationSchedule:
    """Parameters for Algorithm 5 (Theorem 8 / Section 6.2)."""

    n_iterations: int
    selection_size: int
    scale: float
    beta: float
    step_size: float
    chunk_size: int


def sparse_optimization_schedule(n_samples: int, epsilon: float, sparsity: int,
                                 dimension: int, tau: float = 1.0,
                                 expansion: int = 2, beta: float = 1.0,
                                 step_size: float = 0.5,
                                 failure_probability: float = 0.05,
                                 ) -> SparseOptimizationSchedule:
    """Algorithm 5 schedule: ``s = 2 s*``, ``T = floor(log n)`` and the
    Theorem 8 Catoni scale.

    Theorem 8 sets the robust-estimation scale
    ``k = (n^2 eps^2 tau^2 / ((s T)^2 log(T s / zeta)))^{1/4}`` (from the
    bias/variance/noise balance in its proof); Section 6.2's ``k = c2 n
    eps`` reads as shorthand for a tuned constant — we expose the
    theorem's balanced value, which reduces to ``~sqrt(n eps tau / (sT))``
    up to logs.
    """
    check_positive_int(n_samples, "n_samples")
    check_positive(epsilon, "epsilon")
    check_positive_int(sparsity, "sparsity")
    check_positive_int(dimension, "dimension")
    check_positive(tau, "tau")
    check_positive_int(expansion, "expansion")
    check_positive(beta, "beta")
    check_positive(step_size, "step_size")
    zeta = check_probability(failure_probability, "failure_probability",
                             allow_zero=False, allow_one=False)
    T = _clamp_iterations(math.log(max(n_samples, 3)), n_samples)
    s = expansion * sparsity
    log_term = math.log(max(T * s / zeta, math.e))
    k = (n_samples**2 * epsilon**2 * tau**2 / ((s * T) ** 2 * log_term)) ** 0.25
    return SparseOptimizationSchedule(n_iterations=T, selection_size=s, scale=k,
                                      beta=beta, step_size=step_size,
                                      chunk_size=n_samples // T)


def classic_fw_steps(n_iterations: int) -> list[float]:
    """The Frank–Wolfe step sequence ``eta_{t-1} = 2 / (t + 2)``.

    The indexing matches the paper: iteration ``t`` (1-based) uses
    ``eta_{t-1} = 2/(t+2)``, i.e. the first update uses ``2/3``.
    """
    check_positive_int(n_iterations, "n_iterations")
    return [2.0 / (t + 2.0) for t in range(1, n_iterations + 1)]

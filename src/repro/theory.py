"""The paper's theoretical rates as evaluable functions.

Each theorem's headline excess-risk bound is exposed as a plain function
of the problem parameters, constants-free (the Big-O constant is an
explicit argument defaulting to 1).  The benches use these to compare
measured errors against the predicted *scaling*; the test-suite checks
the internal consistency relations the paper states (e.g. Theorem 5's
rate beats Theorem 2's for LASSO, the Theorem 8 upper bound dominates
the Theorem 9 lower bound by exactly ``~sqrt(s*)``).
"""

from __future__ import annotations

import math

from ._validation import check_positive, check_positive_int, check_probability


def _log_term(value: float) -> float:
    """``log(max(value, e))`` — keeps the rates monotone and positive."""
    return math.log(max(value, math.e))


def theorem2_rate(n: int, epsilon: float, dimension: int, n_vertices: int,
                  smoothness: float = 1.0, tau: float = 1.0,
                  diameter: float = 2.0, failure_probability: float = 0.05,
                  constant: float = 1.0) -> float:
    """Theorem 2 (Algorithm 1): ``||W||_1 (alpha tau log(n|V|d/zeta))^{1/3} / (n eps)^{1/3}``."""
    check_positive_int(n, "n")
    check_positive(epsilon, "epsilon")
    zeta = check_probability(failure_probability, "failure_probability",
                             allow_zero=False, allow_one=False)
    log_term = _log_term(n * n_vertices * dimension / zeta)
    return (constant * diameter
            * (smoothness * tau * log_term) ** (1.0 / 3.0)
            / (n * epsilon) ** (1.0 / 3.0))


def theorem3_rate(n: int, epsilon: float, dimension: int,
                  smoothness: float = 1.0, failure_probability: float = 0.05,
                  constant: float = 1.0) -> float:
    """Theorem 3 (robust regression): ``lambda_max log^{1/4}(dn/zeta) / (n eps)^{1/4}``."""
    check_positive_int(n, "n")
    check_positive(epsilon, "epsilon")
    zeta = check_probability(failure_probability, "failure_probability",
                             allow_zero=False, allow_one=False)
    log_term = _log_term(dimension * n / zeta)
    return constant * smoothness * log_term ** 0.25 / (n * epsilon) ** 0.25


def theorem5_rate(n: int, epsilon: float, delta: float, dimension: int,
                  smoothness: float = 1.0, failure_probability: float = 0.05,
                  constant: float = 1.0) -> float:
    """Theorem 5 (Algorithm 2, LASSO):
    ``lambda_max^{1/5} (sqrt(log 1/delta) log(dn/zeta))^{4/5} / (n eps)^{2/5}``."""
    check_positive_int(n, "n")
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta", allow_zero=False, allow_one=False)
    zeta = check_probability(failure_probability, "failure_probability",
                             allow_zero=False, allow_one=False)
    log_term = math.sqrt(_log_term(1.0 / delta)) * _log_term(dimension * n / zeta)
    return (constant * smoothness ** 0.2 * log_term ** 0.8
            / (n * epsilon) ** 0.4)


def theorem7_rate(n: int, epsilon: float, delta: float, dimension: int,
                  sparsity: int, fourth_moment: float = 1.0,
                  gamma: float = 1.0, mu: float = 1.0,
                  failure_probability: float = 0.05,
                  constant: float = 1.0) -> float:
    """Theorem 7 (Algorithm 3):
    ``M gamma^4 s*^2 log n log^2(d/zeta) log(1/delta) / (mu^7 n eps)``."""
    check_positive_int(n, "n")
    check_positive_int(sparsity, "sparsity")
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta", allow_zero=False, allow_one=False)
    zeta = check_probability(failure_probability, "failure_probability",
                             allow_zero=False, allow_one=False)
    numerator = (fourth_moment * gamma**4 * sparsity**2 * _log_term(n)
                 * _log_term(dimension / zeta) ** 2 * _log_term(1.0 / delta))
    return constant * numerator / (mu**7 * n * epsilon)


def theorem8_rate(n: int, epsilon: float, delta: float, dimension: int,
                  sparsity: int, tau: float = 1.0, gamma: float = 1.0,
                  mu: float = 1.0, failure_probability: float = 0.05,
                  constant: float = 1.0) -> float:
    """Theorem 8 (Algorithm 5):
    ``tau gamma^4 s*^{3/2} log n log(d/zeta) sqrt(log 1/delta) / (mu^5 n eps)``."""
    check_positive_int(n, "n")
    check_positive_int(sparsity, "sparsity")
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta", allow_zero=False, allow_one=False)
    zeta = check_probability(failure_probability, "failure_probability",
                             allow_zero=False, allow_one=False)
    numerator = (tau * gamma**4 * sparsity**1.5 * _log_term(n)
                 * _log_term(dimension / zeta)
                 * math.sqrt(_log_term(1.0 / delta)))
    return constant * numerator / (mu**5 * n * epsilon)


def theorem9_rate(n: int, epsilon: float, delta: float, dimension: int,
                  sparsity: int, tau: float = 1.0,
                  constant: float = 1.0) -> float:
    """Theorem 9 lower bound: ``tau min{s* log d, log 1/delta} / (n eps)``."""
    check_positive_int(n, "n")
    check_positive_int(sparsity, "sparsity")
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta", allow_zero=False, allow_one=False)
    numerator = tau * min(sparsity * _log_term(dimension), _log_term(1.0 / delta))
    return constant * numerator / (n * epsilon)


def upper_to_lower_gap(n: int, epsilon: float, delta: float, dimension: int,
                       sparsity: int, tau: float = 1.0) -> float:
    """The Theorem 8 / Theorem 9 ratio — the paper's ``~sqrt(s*)`` gap.

    With all conditioning constants set to 1 and ``s* log d`` the active
    branch of the min, the ratio reduces to
    ``sqrt(s*) * log n * sqrt(log 1/delta)`` — the gap Remark 4 and the
    conclusion discuss.
    """
    upper = theorem8_rate(n, epsilon, delta, dimension, sparsity, tau)
    lower = theorem9_rate(n, epsilon, delta, dimension, sparsity, tau)
    return upper / lower

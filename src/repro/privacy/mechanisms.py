"""Core differential-privacy mechanisms.

Implements the primitives the paper's algorithms are assembled from:

* :class:`LaplaceMechanism` — Definition 2; adds ``Lap(sensitivity/eps)``
  noise to a numeric query (used by Peeling, Algorithm 4).
* :class:`GaussianMechanism` — classical ``(eps, delta)`` calibration;
  used by the DP-SGD baseline.
* :class:`ExponentialMechanism` — Definition 3; selects a candidate with
  probability proportional to ``exp(eps * u / (2 * sensitivity))`` (used
  by the Frank–Wolfe vertex selection in Algorithms 1 and 2).
* :func:`report_noisy_max` — Laplace-based argmax, the per-round
  primitive inside Peeling.

All mechanisms are stateless value objects; sampling takes an explicit
:class:`numpy.random.Generator`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._validation import check_positive, check_probability
from ..rng import SeedLike, ensure_rng
from .budget import PrivacyBudget


@dataclass(frozen=True)
class LaplaceMechanism:
    """Pure ε-DP additive Laplace noise for an ℓ1-sensitivity-bounded query.

    Parameters
    ----------
    epsilon:
        Privacy parameter ε > 0.
    sensitivity:
        ℓ1 sensitivity of the query, ``sup_{D~D'} ||q(D) - q(D')||_1``.
    """

    epsilon: float
    sensitivity: float

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        check_positive(self.sensitivity, "sensitivity")

    @property
    def scale(self) -> float:
        """Laplace scale parameter ``sensitivity / epsilon``."""
        return self.sensitivity / self.epsilon

    @property
    def budget(self) -> PrivacyBudget:
        """The ``(epsilon, 0)`` guarantee of one invocation."""
        return PrivacyBudget(self.epsilon, 0.0)

    def randomize(self, value: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """Return ``value + Lap(scale)`` noise, elementwise."""
        rng = ensure_rng(rng)
        arr = np.asarray(value, dtype=float)
        return arr + rng.laplace(loc=0.0, scale=self.scale, size=arr.shape)


@dataclass(frozen=True)
class GaussianMechanism:
    """(ε, δ)-DP additive Gaussian noise for an ℓ2-sensitivity-bounded query.

    Uses the classical calibration
    ``sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon``.  The
    calibration theorem only guarantees ``(eps, delta)``-DP for
    ``epsilon <= 1``; constructing the mechanism with a larger ε keeps
    the same (now merely heuristic) noise scale but emits a
    :class:`UserWarning` so the regime change cannot pass silently.
    """

    epsilon: float
    delta: float
    sensitivity: float

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta", allow_zero=False, allow_one=False)
        check_positive(self.sensitivity, "sensitivity")
        if self.epsilon > 1:
            warnings.warn(
                f"GaussianMechanism calibration is only proven for "
                f"epsilon <= 1; got epsilon={self.epsilon}. The classical "
                f"sigma formula is used as-is, which may under-noise in "
                f"this regime (consider composing epsilon<=1 invocations).",
                UserWarning, stacklevel=3)

    @property
    def sigma(self) -> float:
        """Standard deviation of the calibrated Gaussian noise."""
        return self.sensitivity * math.sqrt(2.0 * math.log(1.25 / self.delta)) / self.epsilon

    @property
    def budget(self) -> PrivacyBudget:
        """The ``(epsilon, delta)`` guarantee of one invocation."""
        return PrivacyBudget(self.epsilon, self.delta)

    def randomize(self, value: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """Return ``value + N(0, sigma^2)`` noise, elementwise."""
        rng = ensure_rng(rng)
        arr = np.asarray(value, dtype=float)
        return arr + rng.normal(loc=0.0, scale=self.sigma, size=arr.shape)


@dataclass(frozen=True)
class ExponentialMechanism:
    """Pure ε-DP selection from a finite candidate set (Definition 3).

    Given per-candidate scores ``u`` with sensitivity
    ``Δ = max_r max_{D~D'} |u(D,r) - u(D',r)|``, selects index ``r`` with
    probability proportional to ``exp(eps * u_r / (2 Δ))``.

    Two samplers are provided; they induce exactly the same distribution:

    * ``method="softmax"`` — normalise the logits with the stable
      log-sum-exp ``m + log(sum(exp(x - m)))`` and draw by inverting the
      categorical CDF with one uniform, as ``Generator.choice(n, p=p)``
      does internally (same draw, same Generator state afterwards).
    * ``method="gumbel"`` — add i.i.d. ``Gumbel(2Δ/eps)`` noise to the
      scores and take the argmax (the Gumbel-max trick), which is the
      numerically friendliest form for very large candidate sets.
    """

    epsilon: float
    sensitivity: float
    method: str = "softmax"

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        check_positive(self.sensitivity, "sensitivity")
        if self.method not in ("softmax", "gumbel"):
            raise ValueError(f"method must be 'softmax' or 'gumbel', got {self.method!r}")

    @property
    def budget(self) -> PrivacyBudget:
        """The ``(epsilon, 0)`` guarantee of one invocation."""
        return PrivacyBudget(self.epsilon, 0.0)

    def probabilities(self, scores: np.ndarray) -> np.ndarray:
        """Exact selection probabilities for the given score vector."""
        scores = np.asarray(scores, dtype=float)
        return _softmax(scores * (self.epsilon / (2.0 * self.sensitivity)))

    def select(self, scores: np.ndarray, rng: SeedLike = None) -> int:
        """Sample a candidate index with exponential bias toward high scores."""
        rng = ensure_rng(rng)
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 1 or scores.size == 0:
            raise ValueError(f"scores must be a non-empty 1-D array, got shape {scores.shape}")
        # A non-finite score — or a finite one whose scaled logit
        # overflows — admits no exponential-mechanism distribution;
        # sampling anything (e.g. a deterministic argmax) would silently
        # void the privacy guarantee, on either sampler.
        with np.errstate(over="ignore"):
            logits = scores * (self.epsilon / (2.0 * self.sensitivity))
        if not np.all(np.isfinite(logits)):
            raise ValueError(
                "scores must be finite and their logits representable; "
                "got non-finite entries after scaling by eps/(2*sensitivity)")
        if self.method == "gumbel":
            noisy = logits + rng.gumbel(loc=0.0, scale=1.0, size=scores.shape)
            return int(np.argmax(noisy))
        # Defensive renormalisation: with widely separated logits the
        # exponentiated probabilities can sum to slightly off 1.0 after
        # floating-point rounding.  (Finite logits guarantee a strictly
        # positive total: the largest contributes exp(0) = 1.)
        probs = _softmax(logits)
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """``exp(logits - logsumexp(logits))`` with the max-shifted log-sum-exp."""
    m = logits.max()
    return np.exp(logits - (m + np.log(np.sum(np.exp(logits - m)))))


def report_noisy_max(scores: np.ndarray, epsilon: float, sensitivity: float,
                     rng: SeedLike = None,
                     exclude: Optional[np.ndarray] = None) -> int:
    """ε-DP argmax via Laplace noise (the Peeling per-round primitive).

    Adds ``Lap(2 * sensitivity / epsilon)`` noise to each score and
    returns the argmax over the non-excluded indices.  Matches the noise
    scale used inside Algorithm 4, where each of the ``s`` rounds runs at
    the stated per-round scale.

    Parameters
    ----------
    scores:
        Score vector (higher is better).  For Peeling these are ``|v_j|``.
    epsilon:
        Per-invocation privacy parameter.
    sensitivity:
        ℓ∞ sensitivity of the score vector.
    exclude:
        Optional boolean mask of indices that may not be returned.
    """
    check_positive(epsilon, "epsilon")
    check_positive(sensitivity, "sensitivity")
    rng = ensure_rng(rng)
    scores = np.asarray(scores, dtype=float)
    noisy = scores + rng.laplace(scale=2.0 * sensitivity / epsilon, size=scores.shape)
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=bool)
        if exclude.all():
            raise ValueError("all indices are excluded")
        noisy = np.where(exclude, -np.inf, noisy)
    return int(np.argmax(noisy))

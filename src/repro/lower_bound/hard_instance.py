"""The Theorem 9 hard-instance family and the private-Fano lower bound.

Theorem 9 lower-bounds the (ε, δ)-private minimax risk of sparse mean
estimation over the class ``P^{s*}_d(tau)`` (coordinate second moments
``<= tau``, ``s*``-sparse mean) by

.. math:: \\Omega\\Big(\\frac{\\tau \\min\\{s^* \\log d, \\log(1/\\delta)\\}}
          {n\\varepsilon}\\Big).

The construction mixes a point mass at the origin with point masses at
``sqrt(tau/p) * v / sqrt(2 s*)`` for packing vectors ``v``; Lemma 3
(Barber–Duchi) then converts packing separation into a minimax bound.
This module implements the family as actual samplers (so experiments can
*run* estimators on the hard instances), the bound itself, and the
paper's choice of the mixing weight ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .._validation import check_positive, check_positive_int, check_probability
from ..rng import SeedLike, ensure_rng
from .packing import greedy_packing


@dataclass(frozen=True)
class HardInstance:
    """One member ``(1 - p) * delta_0 + p * delta_{theta_v / p}`` of the family.

    Attributes
    ----------
    spike:
        The point-mass location ``sqrt(tau / p) * v / sqrt(2 s*)``.
    mixing_weight:
        The contamination probability ``p``.
    mean:
        ``p * spike`` — the parameter ``theta_v`` an estimator must find.
    """

    spike: np.ndarray
    mixing_weight: float

    @property
    def mean(self) -> np.ndarray:
        """The distribution's mean ``theta_v = p * spike``."""
        return self.mixing_weight * self.spike

    def sample(self, n_samples: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``n`` i.i.d. samples: each row is 0 or ``spike``."""
        check_positive_int(n_samples, "n_samples")
        rng = ensure_rng(rng)
        picks = rng.uniform(size=n_samples) < self.mixing_weight
        out = np.zeros((n_samples, self.spike.size))
        out[picks] = self.spike
        return out

    def coordinate_second_moment(self) -> float:
        """``max_j E X_j^2 = p * max_j spike_j^2`` — must be ``<= tau``."""
        return float(self.mixing_weight * np.max(self.spike**2))


def paper_mixing_weight(n_samples: int, epsilon: float, delta: float,
                        dimension: int, sparsity: int) -> float:
    """The ``p`` of the Theorem 9 proof.

    .. math:: p = \\frac{1}{n\\varepsilon}\\min\\Big\\{
              \\frac{s}{2}\\log\\frac{d-s}{s/2} - \\varepsilon,\\;
              \\log\\frac{1 - e^{-\\varepsilon}}{4\\delta e^{\\varepsilon}}
              \\Big\\}

    clipped into ``(0, 1]`` (the clip only matters for tiny ``n``).
    """
    check_positive_int(n_samples, "n_samples")
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta", allow_zero=False, allow_one=False)
    check_positive_int(dimension, "dimension")
    check_positive_int(sparsity, "sparsity")
    if sparsity >= dimension:
        raise ValueError("need sparsity < dimension")
    packing_term = sparsity / 2.0 * math.log((dimension - sparsity) / (sparsity / 2.0)) - epsilon
    delta_term = math.log(max((1.0 - math.exp(-epsilon)) / (4.0 * delta * math.exp(epsilon)),
                              1.0 + 1e-12))
    p = min(packing_term, delta_term) / (n_samples * epsilon)
    return float(min(max(p, 1e-12), 1.0))


def make_hard_family(dimension: int, sparsity: int, tau: float,
                     mixing_weight: float, max_size: int = 32,
                     rng: SeedLike = None) -> Tuple[list, np.ndarray]:
    """Build the indexed family ``{P_v}`` over a fresh packing.

    Returns the list of :class:`HardInstance` and the packing matrix.
    Each spike is ``sqrt(tau / p) * v / sqrt(2 s*)`` so every instance
    satisfies the moment constraint ``E X_j^2 <= tau / (2 s*) <= tau``
    and means are pairwise ``>= sqrt(2 p tau)`` apart (the ``rho*`` of
    the proof).
    """
    check_positive(tau, "tau")
    p = check_probability(mixing_weight, "mixing_weight", allow_zero=False)
    rng = ensure_rng(rng)
    packing = greedy_packing(dimension, sparsity, max_size=max_size, rng=rng)
    amplitude = math.sqrt(tau / p) / math.sqrt(2.0 * sparsity)
    instances = [HardInstance(spike=amplitude * v.astype(float), mixing_weight=p)
                 for v in packing]
    return instances, packing


def private_fano_bound(n_samples: int, epsilon: float, delta: float,
                       dimension: int, sparsity: int, tau: float) -> float:
    """Evaluate the Theorem 9 lower bound with its explicit constant.

    The proof shows the minimax risk is at least
    ``Phi(rho*) / 8 = (2 p tau) / 8 = p tau / 4`` with the paper's choice
    of the mixing weight ``p``, which expands to
    ``(tau / (4 n eps)) * min{(s/2) log((d-s)/(s/2)) - eps,
    log((1-e^-eps)/(4 delta e^eps))}``.
    """
    check_positive(tau, "tau")
    p = paper_mixing_weight(n_samples, epsilon, delta, dimension, sparsity)
    return tau * p / 4.0


def lower_bound_rate(n_samples: int, epsilon: float, delta: float,
                     dimension: int, sparsity: int, tau: float) -> float:
    """The headline rate ``tau * min{s* log d, log(1/delta)} / (n eps)``.

    A cleaner (constant-free) version of :func:`private_fano_bound` used
    when comparing the upper-bound algorithms' measured error against
    the information-theoretic floor.
    """
    check_positive(tau, "tau")
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta", allow_zero=False, allow_one=False)
    numerator = tau * min(sparsity * math.log(dimension), math.log(1.0 / delta))
    return numerator / (n_samples * epsilon)

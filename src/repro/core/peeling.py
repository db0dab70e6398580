"""Algorithm 4 — Peeling (Cai, Wang, Zhang 2019).

(ε, δ)-DP selection and release of the top-``s`` magnitude coordinates of
a data-dependent vector ``v`` with ℓ∞ sensitivity ``lambda``:

1. ``s`` rounds of report-noisy-max over ``|v_j|`` with i.i.d. Laplace
   noise of scale ``2 * lambda * sqrt(3 s log(1/delta)) / epsilon`` per
   coordinate, peeling off one index per round;
2. release ``v_S + w̃_S`` where ``w̃`` is a fresh Laplace vector at the
   same scale restricted to the selected support ``S``.

Lemma 10 of the paper (Lemma 3.3 in Cai-Wang-Zhang): if
``||v(D) - v(D')||_inf <= lambda`` for all neighbouring datasets, the
procedure is (ε, δ)-DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .._validation import check_positive, check_positive_int, check_probability, check_vector
from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import PrivacyBudget
from ..rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class PeelingResult:
    """Output of one Peeling invocation.

    Attributes
    ----------
    vector:
        The released ``s``-sparse noisy vector ``v_S + w̃_S``.
    support:
        The selected indices, in peel order (first = noisiest argmax).
    noise_scale:
        The per-coordinate Laplace scale actually used.
    """

    vector: np.ndarray
    support: np.ndarray
    noise_scale: float


def peeling_laplace_scale(sparsity: int, epsilon: float, delta: float,
                          noise_scale: float) -> float:
    """The Laplace scale of Algorithm 4: ``2 * lambda * sqrt(3 s log(1/delta)) / eps``."""
    check_positive_int(sparsity, "sparsity")
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta", allow_zero=False, allow_one=False)
    check_positive(noise_scale, "noise_scale")
    return 2.0 * noise_scale * math.sqrt(3.0 * sparsity * math.log(1.0 / delta)) / epsilon


def peeling(v: np.ndarray, sparsity: int, epsilon: float, delta: float,
            noise_scale: float, rng: SeedLike = None,
            accountant: Optional[PrivacyAccountant] = None) -> PeelingResult:
    """Run Algorithm 4 on the vector ``v``.

    Parameters
    ----------
    v:
        The data-dependent vector (e.g. a gradient-descent iterate).
    sparsity:
        Number of coordinates ``s`` to select.
    epsilon, delta:
        Privacy budget of the whole invocation.
    noise_scale:
        The ℓ∞ sensitivity ``lambda`` of ``v`` to one sample change.
    accountant:
        Optional ledger; charged ``(epsilon, delta)`` once.

    Returns
    -------
    PeelingResult
    """
    v = check_vector(v, "v")
    s = check_positive_int(sparsity, "sparsity")
    if s > v.size:
        raise ValueError(f"sparsity {s} exceeds vector length {v.size}")
    rng = ensure_rng(rng)
    lap_scale = peeling_laplace_scale(s, epsilon, delta, noise_scale)

    magnitudes = np.abs(v)
    selected: List[int] = []
    available = np.ones(v.size, dtype=bool)
    for _ in range(s):
        noisy = magnitudes + rng.laplace(scale=lap_scale, size=v.size)
        noisy[~available] = -np.inf
        j = int(np.argmax(noisy))
        selected.append(j)
        available[j] = False

    release_noise = rng.laplace(scale=lap_scale, size=v.size)
    out = np.zeros_like(v)
    support = np.array(selected, dtype=int)
    out[support] = v[support] + release_noise[support]

    if accountant is not None:
        accountant.spend(PrivacyBudget(epsilon, delta), "peeling",
                         note=f"top-{s} selection + release")
    return PeelingResult(vector=out, support=support, noise_scale=lap_scale)


def dense_laplace_release(v: np.ndarray, sparsity: int, epsilon: float,
                          delta: float, noise_scale: float,
                          rng: SeedLike = None,
                          accountant: Optional[PrivacyAccountant] = None,
                          ) -> PeelingResult:
    """Ablation comparator: noise *all* ``d`` coordinates, then hard-threshold.

    The naive alternative to Peeling — add Laplace noise calibrated to
    the ℓ1 sensitivity ``d * lambda`` to the whole vector (pure
    ``epsilon``-DP, so strictly stronger), then keep the top ``s`` noisy
    entries.  Its error scales with ``d`` instead of ``s log d``, which
    is the gap the Peeling ablation bench measures.
    """
    from ..geometry.projections import hard_threshold, support as support_of

    v = check_vector(v, "v")
    s = check_positive_int(sparsity, "sparsity")
    check_positive(noise_scale, "noise_scale")
    rng = ensure_rng(rng)
    lap_scale = v.size * noise_scale / epsilon
    noisy = v + rng.laplace(scale=lap_scale, size=v.size)
    out = hard_threshold(noisy, s)
    if accountant is not None:
        accountant.spend(PrivacyBudget(epsilon, 0.0), "laplace-dense",
                         note=f"dense release + top-{s}")
    return PeelingResult(vector=out, support=support_of(out), noise_scale=lap_scale)

"""Rényi differential privacy (RDP) accounting for Gaussian mechanisms.

The paper composes with the classical advanced composition theorem
(Lemma 2); modern DP-SGD implementations instead track Rényi divergence,
which composes *additively* and converts to (ε, δ)-DP at the end —
usually a substantially tighter bound for many Gaussian invocations.
This module provides that substrate so the DP-SGD baseline can be run
with state-of-practice accounting, and so the ablations can quantify how
much the paper-style composition leaves on the table.

Facts used (Mironov 2017):

* the Gaussian mechanism with noise multiplier ``sigma`` (noise std per
  unit ℓ2 sensitivity) satisfies ``(alpha, alpha / (2 sigma^2))``-RDP
  for every order ``alpha > 1``;
* RDP composes additively order-by-order;
* ``(alpha, rho)``-RDP implies ``(rho + log(1/delta)/(alpha - 1), delta)``-DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from .._validation import check_positive, check_probability
from .budget import PrivacyBudget

#: Default grid of Rényi orders, matching common DP-SGD libraries.
DEFAULT_ORDERS: Tuple[float, ...] = tuple(
    [1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0,
     16.0, 20.0, 24.0, 32.0, 48.0, 64.0, 128.0, 256.0]
)


def gaussian_rdp(noise_multiplier: float, alpha: float) -> float:
    """RDP of one Gaussian mechanism: ``alpha / (2 sigma^2)``."""
    check_positive(noise_multiplier, "noise_multiplier")
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    return alpha / (2.0 * noise_multiplier**2)


def rdp_to_dp(rdp_values: Iterable[Tuple[float, float]],
              delta: float) -> PrivacyBudget:
    """Convert accumulated per-order RDP into the best ``(eps, delta)``.

    Parameters
    ----------
    rdp_values:
        Iterable of ``(alpha, rho_alpha)`` pairs.
    delta:
        Target failure probability.
    """
    check_probability(delta, "delta", allow_zero=False, allow_one=False)
    candidates = [rho + math.log(1.0 / delta) / (alpha - 1.0)
                  for alpha, rho in rdp_values]
    if not candidates:
        raise ValueError("rdp_values is empty")
    return PrivacyBudget(min(candidates), delta)


@dataclass
class RenyiAccountant:
    """Order-wise additive RDP ledger for Gaussian mechanisms.

    Examples
    --------
    >>> acc = RenyiAccountant()
    >>> for _ in range(100):
    ...     acc.record_gaussian(noise_multiplier=4.0)
    >>> budget = acc.to_dp(delta=1e-5)
    """

    orders: Tuple[float, ...] = DEFAULT_ORDERS
    _rdp: Dict[float, float] = field(default_factory=dict)
    n_recorded: int = 0

    def __post_init__(self) -> None:
        if any(alpha <= 1.0 for alpha in self.orders):
            raise ValueError("all Renyi orders must be > 1")
        for alpha in self.orders:
            self._rdp.setdefault(alpha, 0.0)

    def record_gaussian(self, noise_multiplier: float, count: int = 1) -> None:
        """Charge ``count`` Gaussian invocations at the given multiplier."""
        if count < 1 or int(count) != count:
            raise ValueError(f"count must be a positive integer, got {count!r}")
        for alpha in self.orders:
            self._rdp[alpha] += count * gaussian_rdp(noise_multiplier, alpha)
        self.n_recorded += int(count)

    def rdp_at(self, alpha: float) -> float:
        """Accumulated RDP at one order."""
        if alpha not in self._rdp:
            raise KeyError(f"order {alpha} is not tracked")
        return self._rdp[alpha]

    def to_dp(self, delta: float) -> PrivacyBudget:
        """Best ``(eps, delta)`` conversion over the tracked orders."""
        return rdp_to_dp(self._rdp.items(), delta)


def calibrate_noise_multiplier(target: PrivacyBudget, n_steps: int,
                               orders: Tuple[float, ...] = DEFAULT_ORDERS,
                               precision: float = 1e-3) -> float:
    """Smallest Gaussian multiplier meeting ``target`` over ``n_steps``.

    Bisects on ``sigma``; useful to compare against the advanced-
    composition calibration in :class:`~repro.baselines.dp_sgd.DPSGD`
    (RDP typically allows a noticeably smaller sigma).
    """
    if target.delta <= 0:
        raise ValueError("RDP conversion needs delta > 0")
    if n_steps < 1 or int(n_steps) != n_steps:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")

    def epsilon_at(sigma: float) -> float:
        pairs = [(a, n_steps * gaussian_rdp(sigma, a)) for a in orders]
        return rdp_to_dp(pairs, target.delta).epsilon

    low, high = 1e-3, 1.0
    while epsilon_at(high) > target.epsilon:
        high *= 2.0
        if high > 1e6:
            raise RuntimeError("failed to bracket the noise multiplier")
    while high - low > precision:
        mid = 0.5 * (low + high)
        if epsilon_at(mid) > target.epsilon:
            low = mid
        else:
            high = mid
    return high

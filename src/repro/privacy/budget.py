"""Privacy-budget value objects.

A :class:`PrivacyBudget` is an immutable ``(epsilon, delta)`` pair with
the arithmetic used throughout the paper: basic (sequential) composition
adds budgets, and the advanced composition theorem (Lemma 2 of the paper)
converts a target total budget into a per-iteration budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._validation import check_non_negative, check_positive, check_probability


@dataclass(frozen=True, order=False)
class PrivacyBudget:
    """An ``(epsilon, delta)`` differential-privacy guarantee.

    ``delta == 0`` denotes pure ε-DP.  Instances are immutable and
    hashable; arithmetic returns new instances.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        check_non_negative(self.delta, "delta")
        if self.delta >= 1:
            raise ValueError(f"delta must be < 1, got {self.delta}")

    @property
    def is_pure(self) -> bool:
        """``True`` when this is a pure ε-DP guarantee (``delta == 0``)."""
        return self.delta == 0.0

    def __add__(self, other: "PrivacyBudget") -> "PrivacyBudget":
        """Basic sequential composition: budgets add in both coordinates."""
        if not isinstance(other, PrivacyBudget):
            return NotImplemented
        return PrivacyBudget(self.epsilon + other.epsilon, self.delta + other.delta)

    def __mul__(self, k: int) -> "PrivacyBudget":
        """Basic composition of ``k`` copies of this budget."""
        if k < 1 or int(k) != k:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        return PrivacyBudget(self.epsilon * k, self.delta * k)

    __rmul__ = __mul__

    def split(self, k: int) -> "PrivacyBudget":
        """Per-step budget so that ``k`` basic-composed steps meet ``self``."""
        if k < 1 or int(k) != k:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        return PrivacyBudget(self.epsilon / k, self.delta / k)

    def covers(self, other: "PrivacyBudget", *, rtol: float = 1e-9) -> bool:
        """Whether ``self`` is at least as large as ``other`` in both coordinates.

        A small relative tolerance absorbs floating-point drift from
        repeated per-iteration splits.
        """
        eps_ok = other.epsilon <= self.epsilon * (1 + rtol)
        delta_ok = other.delta <= self.delta * (1 + rtol) + 1e-18
        return eps_ok and delta_ok

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_pure:
            return f"({self.epsilon:g})-DP"
        return f"({self.epsilon:g}, {self.delta:g})-DP"


def advanced_composition_step(total: PrivacyBudget, n_steps: int) -> PrivacyBudget:
    """Per-step budget under the advanced composition theorem (paper Lemma 2).

    To guarantee ``(epsilon, T*delta' + delta)``-DP over ``T`` adaptively
    chosen mechanisms it suffices that each is ``(epsilon', delta')``-DP with

    .. math:: \\epsilon' = \\frac{\\epsilon}{2\\sqrt{2 T \\ln(2/\\delta)}},
              \\qquad \\delta' = \\frac{\\delta}{T}.

    The returned per-step budget uses ``delta' = delta / (2T)`` so that the
    composed guarantee is exactly ``(epsilon, delta)`` (half the slack goes
    to the composition itself, half is spread over the steps), matching the
    paper's usage where each iteration runs at
    ``epsilon / (2 sqrt(2 T log(1/delta)))``.

    Parameters
    ----------
    total:
        The end-to-end ``(epsilon, delta)`` target.  ``delta`` must be
        strictly positive — advanced composition has no pure-DP form.
    n_steps:
        Number of adaptively composed mechanisms ``T >= 1``.
    """
    if total.delta <= 0:
        raise ValueError("advanced composition requires delta > 0")
    if n_steps < 1 or int(n_steps) != n_steps:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    T = int(n_steps)
    eps_step = total.epsilon / (2.0 * math.sqrt(2.0 * T * math.log(2.0 / total.delta)))
    delta_step = total.delta / (2.0 * T)
    return PrivacyBudget(eps_step, delta_step)


def advanced_composition_total(step: PrivacyBudget, n_steps: int,
                               delta_slack: float) -> PrivacyBudget:
    """Total guarantee when composing ``n_steps`` copies of ``step``.

    The forward direction of Lemma 2 / Dwork-Roth Theorem 3.20: ``T``
    ``(eps', delta')``-DP mechanisms compose to

    .. math:: \\left(\\epsilon' \\sqrt{2 T \\ln(1/\\tilde\\delta)}
              + T \\epsilon' (e^{\\epsilon'} - 1),\\;
              T\\delta' + \\tilde\\delta\\right)\\text{-DP}

    for any slack ``delta_slack`` in ``(0, 1)``.
    """
    if n_steps < 1 or int(n_steps) != n_steps:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    check_probability(delta_slack, "delta_slack", allow_zero=False, allow_one=False)
    T = int(n_steps)
    eps = step.epsilon * math.sqrt(2.0 * T * math.log(1.0 / delta_slack))
    eps += T * step.epsilon * (math.exp(step.epsilon) - 1.0)
    return PrivacyBudget(eps, T * step.delta + delta_slack)

"""Result objects returned by the core private optimizers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import PrivacyBudget


@dataclass
class FitResult:
    """The output of one private optimization run.

    Attributes
    ----------
    w:
        The final iterate (the private output ``w_T``).
    n_iterations:
        Number of optimization rounds actually executed.
    accountant:
        Ledger of every mechanism invocation during the run; its total is
        the budget actually consumed under basic composition, while
        ``advertised_budget`` is the end-to-end guarantee claimed by the
        algorithm's analysis (they differ when advanced composition is
        used).
    advertised_budget:
        The ``(epsilon, delta)`` guarantee of the run.
    metadata:
        Algorithm-specific diagnostics (chosen schedule, scale, threshold,
        selected vertices, ...).
    """

    w: np.ndarray
    n_iterations: int
    accountant: PrivacyAccountant
    advertised_budget: PrivacyBudget
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def privacy_spent(self) -> Optional[PrivacyBudget]:
        """Total ledger charge (basic composition over recorded entries)."""
        return self.accountant.total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FitResult(n_iterations={self.n_iterations}, "
            f"advertised={self.advertised_budget}, "
            f"||w||_1={float(np.abs(self.w).sum()):.4g})"
        )

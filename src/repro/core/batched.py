"""Name-only delegates to the one implementation of Algorithms 1 and 2.

Algorithm 1 is :meth:`~repro.core.heavy_tailed_dp_fw.HeavyTailedDPFW.fit`
and Algorithm 2 is
:meth:`~repro.core.private_lasso.HeavyTailedPrivateLasso.fit` (which
evaluates its gradient in Gram form).  Nothing in ``repro`` calls the
functions below; they are kept only because the benchmark's span table
(``perfbench/spans.py``, ``TARGETS``) resolves both names in this
module, and they go when that table does.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def batch_fit_lasso(solver, datasets: Sequence[Tuple[np.ndarray, np.ndarray]],
                    rngs: Sequence[np.random.Generator]) -> List[np.ndarray]:
    """Return ``[solver.fit(X, y, rng=rng).w ...]`` over paired datasets and rngs."""
    return [solver.fit(X, y, rng=rng).w for (X, y), rng in zip(datasets, rngs)]


def fast_fit_dpfw(solver, X: np.ndarray, y: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Return ``solver.fit(X, y, rng=rng).w``."""
    return solver.fit(X, y, rng=rng).w

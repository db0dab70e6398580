"""Empirical moment diagnostics for heavy-tailed data.

The paper's assumptions are stated in terms of coordinate moments:
Assumption 1 needs ``E[(grad_j ell)^2] <= tau``; Assumption 3 needs
``E[(x_j x_k)^2] <= M`` and ``E[y^4] <= M``.  These helpers estimate the
relevant quantities from data so that experiments can (a) set ``tau``
honestly and (b) report when an assumption is empirically violated —
the paper's own explanation for the instability of its real-data plots.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_dataset, check_matrix


def coordinate_second_moment(values: np.ndarray) -> float:
    """``max_j mean(values[:, j]^2)`` — the empirical ``tau`` of Assumption 1."""
    v = check_matrix(values, "values")
    return float(np.max(np.mean(v**2, axis=0)))


def gradient_second_moment(loss, w: np.ndarray, X: np.ndarray,
                           y: np.ndarray) -> float:
    """Empirical ``tau`` for a loss at a specific point ``w``."""
    grads = loss.per_sample_gradients(w, X, y)
    return coordinate_second_moment(grads)


def pairwise_fourth_moment(X: np.ndarray, max_pairs: int = 10_000,
                           rng=None) -> float:
    """Estimate ``max_{j,k} E[(x_j x_k)^2]`` — the ``M`` of Assumption 3.

    For large ``d`` the full ``d^2`` scan is subsampled to ``max_pairs``
    random pairs (plus all diagonal pairs, which usually dominate).
    """
    from ..rng import ensure_rng

    X = check_matrix(X, "X")
    n, d = X.shape
    diag = np.mean(X**4, axis=0)
    best = float(np.max(diag))
    total_pairs = d * (d - 1) // 2
    if total_pairs == 0:
        return best
    rng = ensure_rng(rng)
    n_draw = min(max_pairs, total_pairs)
    js = rng.integers(0, d, size=n_draw)
    ks = rng.integers(0, d, size=n_draw)
    keep = js != ks
    if keep.any():
        cross = np.mean((X[:, js[keep]] * X[:, ks[keep]]) ** 2, axis=0)
        best = max(best, float(np.max(cross)))
    return best


def response_fourth_moment(y: np.ndarray) -> float:
    """``E[y^4]`` — the response half of Assumption 3."""
    y = np.asarray(y, dtype=float)
    return float(np.mean(y**4))


def kurtosis_report(X: np.ndarray, y: np.ndarray) -> dict:
    """Summary of tail heaviness used by the examples.

    Returns per-dataset diagnostics: max coordinate kurtosis, the
    Assumption 1/3 moment estimates and the largest single-entry
    magnitude relative to the column standard deviation (an outlier
    severity score).
    """
    X, y = check_dataset(X, y)
    column_std = np.std(X, axis=0)
    column_std = np.where(column_std > 0, column_std, 1.0)
    centered = X - np.mean(X, axis=0)
    fourth = np.mean(centered**4, axis=0)
    kurt = fourth / np.maximum(column_std**4, 1e-300)
    return {
        "max_coordinate_kurtosis": float(np.max(kurt)),
        "tau_hat": coordinate_second_moment(X),
        "M_hat": pairwise_fourth_moment(X),
        "y_fourth_moment": response_fourth_moment(y),
        "max_outlier_sigmas": float(np.max(np.abs(centered) / column_std)),
    }

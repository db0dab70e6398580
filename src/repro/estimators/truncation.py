"""Entry-wise data shrinkage for heavy-tailed design matrices.

Algorithms 2 and 3 of the paper pre-process the raw samples by the
shrinkage operator of Fan, Wang and Zhu (2016):

.. math:: \\tilde x_{ij} = \\mathrm{sign}(x_{ij})\\,\\min(|x_{ij}|, K),
          \\qquad \\tilde y_i = \\mathrm{sign}(y_i)\\,\\min(|y_i|, K).

After shrinkage every entry is bounded by ``K``, so the squared loss is
ℓ1-Lipschitz with constant ``O(K^2)`` and the private Frank–Wolfe / IHT
machinery for regular data applies.  The threshold schedules of
Theorems 5 and 7 — ``K = (n eps)^{1/4} / T^{1/8}`` for LASSO and
``K = (n eps / (s T))^{1/4}`` for sparse regression — live here too so
the core algorithms and the ablation benches share one implementation.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .._validation import check_positive, check_positive_int


def shrink(values: np.ndarray, threshold: float) -> np.ndarray:
    """Entry-wise shrinkage ``sign(v) * min(|v|, K)``.

    Unlike zeroing-style "truncation", shrinkage keeps the sign and caps
    the magnitude, which is what preserves enough signal under bounded
    fourth moments (paper Assumption 3 / Lemma 8).

    Computed as one clip into a fresh array; the ``+= 0.0`` maps ``-0.0``
    to ``+0.0`` exactly as the ``sign`` form does.
    """
    check_positive(threshold, "threshold")
    out = np.clip(np.asarray(values, dtype=float), -threshold, threshold)
    out += 0.0
    return out


def shrink_dataset(features: np.ndarray, labels: np.ndarray,
                   threshold: float) -> Tuple[np.ndarray, np.ndarray]:
    """Shrink both the design matrix and the responses at threshold ``K``."""
    return shrink(features, threshold), shrink(labels, threshold)


def lasso_threshold(n_samples: int, epsilon: float, n_iterations: int) -> float:
    """Theorem 5 schedule for Algorithm 2: ``K = (n eps)^{1/4} / T^{1/8}``."""
    check_positive_int(n_samples, "n_samples")
    check_positive(epsilon, "epsilon")
    check_positive_int(n_iterations, "n_iterations")
    return (n_samples * epsilon) ** 0.25 / n_iterations ** 0.125


def sparse_regression_threshold(n_samples: int, epsilon: float,
                                sparsity: int, n_iterations: int) -> float:
    """Theorem 7 schedule for Algorithm 3: ``K = (n eps / (s T))^{1/4}``.

    The different exponent versus :func:`lasso_threshold` reflects the
    different bias/variance/noise trade-off the two proofs optimise
    (Remark 3 of the paper).
    """
    check_positive_int(n_samples, "n_samples")
    check_positive(epsilon, "epsilon")
    check_positive_int(sparsity, "sparsity")
    check_positive_int(n_iterations, "n_iterations")
    return (n_samples * epsilon / (sparsity * n_iterations)) ** 0.25


def shrinkage_bias_bound(threshold: float, fourth_moment: float) -> float:
    """Bound on the covariance distortion of shrinkage: ``O(M / K^2)``.

    Equation (36) of the paper: for entries with bounded fourth moment
    ``E (x_j x_k)^2 <= M``, the shrunken second-moment matrix deviates
    entry-wise from the true one by at most a constant times ``M / K^2``.
    Exposed so tests and the threshold ablation can compare the measured
    distortion against the analytical rate.
    """
    check_positive(threshold, "threshold")
    check_positive(fourth_moment, "fourth_moment")
    return fourth_moment / threshold**2


def clip_l2(rows: np.ndarray, radius: float) -> np.ndarray:
    """Per-row ℓ2 clipping ``v * min(1, radius / ||v||_2)``.

    This is the *gradient clipping* used by the DP-SGD baseline (Abadi et
    al.), included here for contrast with shrinkage: clipping bounds the
    whole-vector norm, shrinkage bounds each entry.
    """
    check_positive(radius, "radius")
    arr = np.asarray(rows, dtype=float)
    if arr.ndim == 1:
        norm = float(np.linalg.norm(arr))
        if norm <= radius or norm == 0.0:
            return arr.copy()
        return arr * (radius / norm)
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    scales = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    return arr * scales

"""Evaluation metrics: excess risk, parameter error, support recovery.

The paper's measurement is the excess population risk
``L_D(w) - L_D(w*)`` approximated by the empirical risk on the dataset
("since it is impossible to precisely evaluate the population risk
function, here we will use the empirical risk to approximate it" —
Section 6.2); the sparse experiments additionally look at parameter
estimation error, for which support-recovery diagnostics are provided.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._validation import check_dataset, check_vector
from ..losses.base import Loss


def excess_empirical_risk(loss: Loss, w: np.ndarray, w_star: np.ndarray,
                          X: np.ndarray, y: np.ndarray) -> float:
    """``L_hat(w) - L_hat(w*)`` on the given evaluation batch.

    Can be (slightly) negative when ``w*`` is a planted parameter rather
    than the empirical minimiser; callers that need a non-negative series
    should pass the empirical optimum as ``w_star``.
    """
    X, y = check_dataset(X, y)
    w = check_vector(w, "w", dim=X.shape[1])
    w_star = check_vector(w_star, "w_star", dim=X.shape[1])
    return loss.value(w, X, y) - loss.value(w_star, X, y)


def parameter_error(w: np.ndarray, w_star: np.ndarray, order: int = 2) -> float:
    """``||w - w*||`` in the requested norm (2 by default)."""
    w = check_vector(w, "w")
    w_star = check_vector(w_star, "w_star", dim=w.size)
    return float(np.linalg.norm(w - w_star, ord=order))


def support_recovery(w: np.ndarray, w_star: np.ndarray, *,
                     tol: float = 1e-10) -> dict:
    """Precision/recall/F1 of the recovered support against ``supp(w*)``."""
    w = check_vector(w, "w")
    w_star = check_vector(w_star, "w_star", dim=w.size)
    estimated = set(np.nonzero(np.abs(w) > tol)[0].tolist())
    truth = set(np.nonzero(np.abs(w_star) > tol)[0].tolist())
    overlap = len(estimated & truth)
    precision = overlap / len(estimated) if estimated else (1.0 if not truth else 0.0)
    recall = overlap / len(truth) if truth else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return {"precision": precision, "recall": recall, "f1": f1,
            "estimated_size": len(estimated), "true_size": len(truth)}


def classification_accuracy(w: np.ndarray, X: np.ndarray,
                            y: np.ndarray) -> float:
    """Sign-agreement accuracy for ±1 labels (logistic experiments)."""
    X, y = check_dataset(X, y)
    w = check_vector(w, "w", dim=X.shape[1])
    predictions = np.where(X @ w > 0, 1.0, -1.0)
    return float(np.mean(predictions == y))


def mean_squared_estimation_error(estimate: np.ndarray,
                                  truth: np.ndarray) -> float:
    """``||estimate - truth||_2^2`` — the risk metric of Theorem 9."""
    estimate = check_vector(estimate, "estimate")
    truth = check_vector(truth, "truth", dim=estimate.size)
    return float(np.sum((estimate - truth) ** 2))


def relative_risk_gap(loss: Loss, w_private: np.ndarray,
                      w_nonprivate: np.ndarray, X: np.ndarray, y: np.ndarray,
                      w_star: Optional[np.ndarray] = None) -> float:
    """``(L(w_priv) - L(w_nonpriv)) / max(L(w_nonpriv) - L(w*), eps_mach)``.

    Panel (c) of Figures 1/2/5/6 plots "the difference of empirical risk
    between private and non-private" — the absolute gap
    ``L(w_priv) - L(w_nonpriv)``; this relative form is additionally
    provided for scale-free reporting.
    """
    gap = loss.value(w_private, X, y) - loss.value(w_nonprivate, X, y)
    if w_star is None:
        return gap
    denom = max(loss.value(w_nonprivate, X, y) - loss.value(w_star, X, y), 1e-12)
    return gap / denom


# ---------------------------------------------------------------------------
# Registry adapters — metrics as addressable data for experiment specs.
# Each takes ``(w, data)`` (a fitted parameter and the
# :class:`~repro.data.RegressionData` it was fitted on) plus optional
# keywords supplied by the spec's ``metric_kwargs``.
# ---------------------------------------------------------------------------

from ..registry import METRICS


@METRICS.register("excess_risk")
def _excess_risk_metric(w: np.ndarray, data, *, loss="squared") -> float:
    """Excess empirical risk against the planted ``w*``.

    ``loss`` is a registered loss name or mapping (see
    :func:`repro.losses.resolve_loss`); the paper's headline metric.
    """
    from ..losses.base import resolve_loss
    return excess_empirical_risk(resolve_loss(loss), w, data.w_star,
                                 data.features, data.labels)


@METRICS.register("param_error")
def _param_error_metric(w: np.ndarray, data, *, order: int = 2) -> float:
    """Parameter error ``||w - w*||`` in the requested norm."""
    return parameter_error(w, data.w_star, order=order)


@METRICS.register("accuracy")
def _accuracy_metric(w: np.ndarray, data) -> float:
    """Sign-agreement accuracy on ±1 labels (logistic experiments)."""
    return classification_accuracy(w, data.features, data.labels)


@METRICS.register("support_f1")
def _support_f1_metric(w: np.ndarray, data, *, tol: float = 1e-10) -> float:
    """F1 score of the recovered support against ``supp(w*)``."""
    return float(support_recovery(w, data.w_star, tol=tol)["f1"])

"""Trial-batched, bit-identical fast paths for the hot solver families.

The engine's batched-trials protocol (``Scenario.batch_point``, see
docs/engine.md "Batched trials") lets a scenario execute a whole grid
cell — ``K`` trials — in one call.  This module provides the solver-side
machinery those ``batch_point`` implementations are built from:

* :func:`select_from_logits` / :func:`softmax_rows` — an exact replica
  of :meth:`repro.privacy.mechanisms.ExponentialMechanism.select`
  (softmax sampler) built from numpy primitives whose outputs are
  bit-identical to the scipy/``Generator.choice`` originals, including
  the Generator's stream state: ``logsumexp`` is replaced by the
  equivalent ``m + log(sum(exp(x - m)))`` and ``rng.choice(n, p)`` by
  the same CDF inversion it performs internally (one ``rng.random()``
  draw, ``searchsorted`` right).

* :func:`batch_fit_lasso` — Algorithm 2 (:class:`HeavyTailedPrivateLasso`)
  for ``K`` same-shaped datasets at once.  The per-iteration gradient
  ``2 (X̃ᵀ(X̃ w − ỹ)) / n`` is rewritten in Gram form
  ``2 (G w − c) / n`` with ``G = X̃ᵀX̃`` and ``c = X̃ᵀỹ`` precomputed
  once per trial, so the ``T``-step Frank–Wolfe loop runs on stacked
  ``(K, d, d)`` tensors instead of re-streaming the ``(n, d)`` data
  matrix twice per iteration.  Per-trial randomness (one exponential-
  mechanism draw per iteration) stays scalar and consumes each trial's
  Generator in exactly the scalar order.

* :func:`fast_fit_dpfw` / :func:`fast_full_batch_fw` — Algorithm 1
  (:class:`HeavyTailedDPFW`) and its advanced-composition full-batch
  variant with identical arithmetic but without the per-iteration
  validation re-scans, mechanism construction, and accounting
  bookkeeping of the reference implementation.

The bit-identity argument for the Gram rewrite: the gradient enters the
result only through the exponential mechanism's *discrete* vertex
selection (the iterate update uses the selected vertex, never the
gradient itself), and the selection is a CDF inversion whose outcome
changes only if an ulp-level perturbation crosses the trial's uniform
draw — a measure-zero boundary the committed benches never sit on.  The
property tests in ``tests/test_batched.py`` and the golden-run gates
(``tests/test_diff.py``, CI's ``diff-gate`` and ``perf`` jobs) enforce
exact equality end to end.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..estimators.catoni import CatoniEstimator
from ..estimators.truncation import shrink
from ..estimators.weak_moments import (
    TruncatedMeanEstimator,
    optimal_truncation_threshold,
)
from ..losses.base import MarginLoss
from .hyperparams import classic_fw_steps


def _require_finite_logits(logits: np.ndarray) -> None:
    """Replicate the mechanism's refusal to sample from broken logits."""
    if not np.all(np.isfinite(logits)):
        raise ValueError(
            "scores must be finite and their logits representable; "
            "got non-finite entries after scaling by eps/(2*sensitivity)")


def select_from_logits(logits: np.ndarray, rng: np.random.Generator) -> int:
    """Exponential-mechanism softmax draw from precomputed logits.

    Bit-identical to ``ExponentialMechanism.select`` for
    ``logits = scores * (epsilon / (2 * sensitivity))``: the same
    probabilities (numpy log-sum-exp replica of scipy's), the same
    defensive renormalisation, and the same single uniform draw inverted
    through the cumulative distribution — ``Generator.choice(n, p=...)``
    performs exactly this inversion internally, so the selected index
    *and* the Generator's subsequent stream state match the original.
    """
    _require_finite_logits(logits)
    m = logits.max()
    probs = np.exp(logits - (m + np.log(np.sum(np.exp(logits - m)))))
    probs = probs / probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise exponential-mechanism probabilities for stacked trials.

    Each row reproduces ``ExponentialMechanism.probabilities`` (plus the
    sampler's renormalisation) bit-for-bit: the axis-wise max, exp, sum
    and divide perform the same per-row reductions the scalar path does
    on one contiguous vector.
    """
    m = logits.max(axis=1)
    lse = m + np.log(np.sum(np.exp(logits - m[:, None]), axis=1))
    probs = np.exp(logits - lse[:, None])
    return probs / probs.sum(axis=1, keepdims=True)


def _draw_row(probs_row: np.ndarray, rng: np.random.Generator) -> int:
    """One CDF-inversion draw from a probability row (stream-identical)."""
    cdf = probs_row.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def batch_fit_lasso(solver, datasets: Sequence[Tuple[np.ndarray, np.ndarray]],
                    rngs: Sequence[np.random.Generator]) -> List[np.ndarray]:
    """Fit Algorithm 2 on ``K`` datasets with one stacked Frank–Wolfe loop.

    Parameters
    ----------
    solver:
        A configured :class:`~repro.core.private_lasso.HeavyTailedPrivateLasso`
        whose polytope is an :class:`~repro.geometry.polytope.L1Ball`.
    datasets:
        ``K`` pairs ``(X, y)`` of identical shape — the trials of one
        grid cell.
    rngs:
        The trials' Generators, positioned exactly where the scalar path
        would hand them to ``solver.fit`` (i.e. after data generation).

    Returns the ``K`` fitted weight vectors, bit-identical to
    ``[solver.fit(X, y, rng=rng).w for ...]``.  Each Generator is
    consumed with the scalar path's draw sequence: one uniform per
    iteration, nothing else.
    """
    ball = solver.polytope
    d = ball.dimension
    radius = ball.radius
    k_trials = len(datasets)
    n = datasets[0][0].shape[0]
    schedule = solver.resolve_schedule(n)
    T, K = schedule.n_iterations, schedule.threshold
    steps = (list(solver.step_sizes) if solver.step_sizes is not None
             else classic_fw_steps(T))
    if len(steps) < T:
        raise ValueError(f"need {T} step sizes, got {len(steps)}")
    sensitivity = 4.0 * ball.l1_diameter() * K**2 / n
    factor = solver.per_iteration_epsilon(T) / (2.0 * sensitivity)

    gram = np.empty((k_trials, d, d))
    cross = np.empty((k_trials, d))
    for k, (X, y) in enumerate(datasets):
        X_shrunk = shrink(X, K)
        y_shrunk = shrink(y, K)
        gram[k] = X_shrunk.T @ X_shrunk
        cross[k] = X_shrunk.T @ y_shrunk

    w = np.zeros((k_trials, d))
    vertex = np.empty((k_trials, d))
    for t in range(T):
        g = 2.0 * (np.matmul(gram, w[..., None])[..., 0] - cross) / n
        logits = np.concatenate([-radius * g, radius * g], axis=1) * factor
        _require_finite_logits(logits)
        probs = softmax_rows(logits)
        vertex[:] = 0.0
        for k in range(k_trials):
            index = _draw_row(probs[k], rngs[k])
            if index < d:
                vertex[k, index] = radius
            else:
                vertex[k, index - d] = -radius
        w = (1.0 - steps[t]) * w + steps[t] * vertex
    return [w[k] for k in range(k_trials)]


def _margin_grads(loss, w, X, y):
    """Per-sample gradients with the validation scans already paid.

    For losses whose ``per_sample_gradients`` is exactly
    :meth:`MarginLoss.per_sample_gradients` this evaluates the same
    ``psi'(X @ w, y)[:, None] * X`` expression without re-validating the
    (already validated) chunk; any override falls back to the loss's own
    method so subclass arithmetic is never second-guessed.
    """
    if type(loss).per_sample_gradients is MarginLoss.per_sample_gradients:
        slopes = loss.link_derivative(loss.margins(w, X), y)
        return slopes[:, None] * X
    return loss.per_sample_gradients(w, X, y)


def fast_fit_dpfw(solver, X: np.ndarray, y: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Algorithm 1 with reference arithmetic and no bookkeeping.

    Bit-identical to ``solver.fit(X, y, rng=rng).w`` for a
    :class:`~repro.core.heavy_tailed_dp_fw.HeavyTailedDPFW` built with
    the default softmax mechanism: the chunk permutation, the per-chunk
    estimator call, the per-iteration sensitivity, the selection logits
    and the single uniform draw per iteration are computed by the same
    expressions in the same order.  What is skipped — full-data
    finiteness re-scans, per-iteration mechanism/accountant
    construction, ``FitResult`` assembly — never touches a value or a
    random draw.
    """
    n = X.shape[0]
    schedule = solver.resolve_schedule(n)
    T = schedule.n_iterations
    steps = (list(solver.step_sizes) if solver.step_sizes is not None
             else classic_fw_steps(T))
    if len(steps) < T:
        raise ValueError(f"need {T} step sizes, got {len(steps)}")
    ball = solver.polytope
    w = ball.initial_point()
    if solver.gradient_estimator == "catoni":
        estimator = CatoniEstimator(scale=schedule.scale, beta=schedule.beta)
    else:
        threshold = (solver.scale if solver.scale is not None
                     else optimal_truncation_threshold(
                         max(schedule.chunk_size, 1), solver.epsilon,
                         solver.moment_order, solver.tau))
        estimator = TruncatedMeanEstimator(threshold=threshold)
    diameter = ball.l1_diameter()
    chunk_indices = np.array_split(rng.permutation(n), T)
    for t in range(T):
        idx = chunk_indices[t]
        grads = _margin_grads(solver.loss, w, X[idx], y[idx])
        g_tilde = estimator.estimate_columns(grads)
        sensitivity = diameter * estimator.sensitivity(idx.size)
        with np.errstate(over="ignore"):
            logits = ball.vertex_scores(g_tilde) * (
                solver.epsilon / (2.0 * sensitivity))
        index = select_from_logits(logits, rng)
        w = (1.0 - steps[t]) * w + steps[t] * ball.vertex(index)
    return w


def fast_full_batch_fw(loss, ball, X: np.ndarray, y: np.ndarray,
                       estimator, eps_step: float, sensitivity: float,
                       steps: Sequence[float],
                       rng: np.random.Generator) -> np.ndarray:
    """Full-batch robust Frank–Wolfe with a fixed per-step budget.

    The advanced-composition variant used by the split-vs-composed
    ablation: every iteration re-estimates the gradient on the *whole*
    dataset and selects a vertex at budget ``eps_step``.  Bit-identical
    to the reference loop (same estimator call, same logits, same single
    uniform per iteration) minus its per-iteration validation re-scans.
    """
    w = ball.initial_point()
    factor = eps_step / (2.0 * sensitivity)
    for t in range(len(steps)):
        grads = _margin_grads(loss, w, X, y)
        g_tilde = estimator.estimate_columns(grads)
        with np.errstate(over="ignore"):
            logits = ball.vertex_scores(g_tilde) * factor
        index = select_from_logits(logits, rng)
        w = (1.0 - steps[t]) * w + steps[t] * ball.vertex(index)
    return w

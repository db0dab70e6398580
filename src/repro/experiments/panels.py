"""Scenario dataclasses behind every figure/ablation/extension bench.

Each class below is a frozen :class:`repro.evaluation.Scenario`
dataclass implementing the engine's point protocol

``scenario(series_value, sweep_value, rng) -> float``

with the experiment's remaining configuration (distributions, fixed
sizes, solver knobs) carried as dataclass fields.  As module-level
dataclasses they pickle by field (the fleet ships grids out to its
workers) and fingerprint by field + ``__call__`` bytecode (editing a
panel's code invalidates exactly its cached cells; see
``docs/engine.md``).

They live in the package so the named catalog
(:mod:`repro.experiments.catalog`) and the CLI (``python -m repro``)
can address them without the bench harness on ``sys.path``; the bench
files import their data and fit helpers from here too.

Grouping: one class per experiment *family*, with a ``sweep`` field
selecting which variable the x-axis drives, so e.g. Figures 5 and 6
differ only in their ``features`` field and panels (a)/(b) of one
figure differ only in ``sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import (
    BiweightLoss,
    DistributionSpec,
    HeavyTailedDPFW,
    HeavyTailedPrivateLasso,
    HeavyTailedSparseLinearRegression,
    HeavyTailedSparseOptimizer,
    L1Ball,
    L2Regularized,
    LogisticLoss,
    SquaredLoss,
    l1_ball_truth,
    load_real_like,
    make_linear_data,
    make_logistic_data,
    sparse_truth,
)
from repro.baselines import DPSGD, FrankWolfe, RegularDPFrankWolfe
from repro.core import classic_fw_steps, dense_laplace_release, peeling
from repro.estimators import CatoniEstimator, optimal_scale
from repro.evaluation import Scenario
from repro.geometry import project_l1_ball
from repro.privacy import ExponentialMechanism

#: Stateless loss singletons shared by every scenario (as the benches'
#: module-level ``LOSS`` constants always were).
SQUARED = SquaredLoss()
LOGISTIC = LogisticLoss()


def _resolve_sparse_axes(scenario, x):
    """Pin two of (n, s*, ε) and let ``scenario.sweep`` drive the third.

    Shared by the sparse panels so the pinning semantics cannot drift
    between the linear and logistic families.
    """
    n, s_star, eps = scenario.n_fixed, scenario.s_fixed, scenario.eps_fixed
    if scenario.sweep == "epsilon":
        eps = x
    elif scenario.sweep == "n":
        n = x
    else:  # "s_star" (sweep fields are validated in __post_init__)
        s_star = x
    return n, s_star, eps


def _check_choice(scenario, field: str, allowed: tuple) -> None:
    """Fail fast on a mistyped mode field.

    The axis/solver dispatches below use ``if/elif/else`` chains; without
    this check a typo like ``sweep="eps"`` would silently take the last
    branch and emit a plausible-looking but wrong panel.
    """
    value = getattr(scenario, field)
    if value not in allowed:
        raise ValueError(
            f"{type(scenario).__name__}.{field} must be one of {allowed}, "
            f"got {value!r}")


def _l1_linear_data(n, d, features, noise, rng):
    """A linear dataset with an ℓ1-ball ``w*`` (Figures 1, 5, 6 recipe)."""
    return make_linear_data(n, l1_ball_truth(d, rng), features, noise,
                            rng=rng)


def _squared_excess(w, data):
    """Excess empirical squared risk against the planted ``w*``."""
    return (SQUARED.value(w, data.features, data.labels)
            - SQUARED.value(data.w_star, data.features, data.labels))


def _fit_l1_private(solver, data, eps, tau, delta, rng):
    """The private ℓ1-ball fit a panel compares: DP-FW or private Lasso."""
    if solver == "dpfw":
        model = HeavyTailedDPFW(SQUARED, L1Ball(data.dimension), epsilon=eps,
                                tau=tau, schedule_mode="theory")
    else:
        model = HeavyTailedPrivateLasso(L1Ball(data.dimension), epsilon=eps,
                                        delta=delta)
    return model.fit(data.features, data.labels, rng=rng).w


# ---------------------------------------------------------------------------
# Figures 1, 5, 6 — linear regression on the ℓ1 ball.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class L1LinearPanel(Scenario):
    """Panels (a)/(b) of Figures 1, 5, 6: excess risk per dimension.

    ``__call__(d, x, rng)``: the series value ``d`` is the dimension,
    the sweep value ``x`` is ``epsilon`` (``sweep="epsilon"``, ``n``
    pinned to ``n_fixed``) or ``n`` (``sweep="n"``, ``epsilon`` pinned
    to ``eps_fixed``); ``rng`` drives data generation and the private
    fit.  Returns the excess empirical squared risk against the planted
    ``w*``.
    """

    solver: str = "dpfw"  # "dpfw" (Fig 1) | "lasso" (Figs 5, 6)
    features: DistributionSpec = None  # type: ignore[assignment]
    noise: DistributionSpec = None  # type: ignore[assignment]
    sweep: str = "epsilon"  # "epsilon" | "n"
    n_fixed: int = 0
    eps_fixed: float = 1.0
    tau: float = 5.0
    delta: float = 1e-5

    def __post_init__(self):
        """Reject mistyped mode fields at construction time."""
        _check_choice(self, "solver", ("dpfw", "lasso"))
        _check_choice(self, "sweep", ("epsilon", "n"))

    def __call__(self, d, x, rng):
        """One trial of one cell; see the class docstring for the axes."""
        n, eps = ((self.n_fixed, x) if self.sweep == "epsilon"
                  else (x, self.eps_fixed))
        data = _l1_linear_data(n, d, self.features, self.noise, rng)
        w = _fit_l1_private(self.solver, data, eps, self.tau, self.delta, rng)
        return _squared_excess(w, data)


@dataclass(frozen=True)
class L1PrivateVsNonprivatePanel(Scenario):
    """Panel (c) of Figures 1, 5, 6: private vs non-private risk vs n.

    ``__call__(kind, n, rng)``: the series value ``kind`` is
    ``"private(eps=1)"`` (the figure's private solver at ε = 1) or any
    other label for the non-private Frank–Wolfe reference; the sweep
    value is the sample count ``n``.  Returns the excess empirical
    squared risk at the fixed dimension ``d_fixed``.
    """

    solver: str = "dpfw"
    features: DistributionSpec = None  # type: ignore[assignment]
    noise: DistributionSpec = None  # type: ignore[assignment]
    d_fixed: int = 0
    tau: float = 5.0
    delta: float = 1e-5
    fw_iterations: int = 60

    def __post_init__(self):
        """Reject mistyped mode fields at construction time."""
        _check_choice(self, "solver", ("dpfw", "lasso"))

    def __call__(self, kind, n, rng):
        """One trial of one cell; see the class docstring for the axes."""
        data = _l1_linear_data(n, self.d_fixed, self.features, self.noise,
                               rng)
        if kind == "private(eps=1)":
            w = _fit_l1_private(self.solver, data, 1.0, self.tau, self.delta,
                                rng)
        else:
            w = FrankWolfe(SQUARED, L1Ball(self.d_fixed),
                           n_iterations=self.fw_iterations).fit(
                data.features, data.labels)
        return _squared_excess(w, data)


# ---------------------------------------------------------------------------
# Figure 2 — logistic regression on the ℓ1 ball.
# ---------------------------------------------------------------------------

def _logistic_l1_data(n, d, features, rng):
    """Noiseless sign-label logistic data with an ℓ1-ball ``w*``."""
    w_star = l1_ball_truth(d, rng)
    return make_logistic_data(n, w_star, features, None, rng=rng)


def _logistic_excess(w, data, reference_iterations):
    """Excess vs the ball-constrained empirical optimum.

    The planted ``w*`` is NOT the logistic-risk minimiser over the ball
    (with separable sign labels the risk keeps falling toward the
    boundary), so the reference is computed by non-private Frank-Wolfe,
    exactly as the paper does for its real-data experiments.
    """
    w_opt = FrankWolfe(LOGISTIC, L1Ball(data.dimension),
                       n_iterations=reference_iterations).fit(
        data.features, data.labels)
    return (LOGISTIC.value(w, data.features, data.labels)
            - LOGISTIC.value(w_opt, data.features, data.labels))


@dataclass(frozen=True)
class LogisticDPFWPanel(Scenario):
    """Panels (a)/(b) of Figure 2: excess logistic risk per dimension.

    ``__call__(d, x, rng)``: series value ``d`` is the dimension, sweep
    value ``x`` is ``epsilon`` or ``n`` depending on ``sweep`` (the
    other axis pinned to ``n_fixed``/``eps_fixed``).  Returns the
    excess logistic risk against an 80-step non-private Frank–Wolfe
    reference.
    """

    features: DistributionSpec = None  # type: ignore[assignment]
    sweep: str = "epsilon"
    n_fixed: int = 0
    eps_fixed: float = 1.0
    tau: float = 3.0
    reference_iterations: int = 80

    def __post_init__(self):
        """Reject mistyped mode fields at construction time."""
        _check_choice(self, "sweep", ("epsilon", "n"))

    def __call__(self, d, x, rng):
        """One trial of one cell; see the class docstring for the axes."""
        n, eps = ((self.n_fixed, x) if self.sweep == "epsilon"
                  else (x, self.eps_fixed))
        data = _logistic_l1_data(n, d, self.features, rng)
        solver = HeavyTailedDPFW(LOGISTIC, L1Ball(data.dimension),
                                 epsilon=eps, tau=self.tau,
                                 schedule_mode="theory")
        w = solver.fit(data.features, data.labels, rng=rng).w
        return _logistic_excess(w, data, self.reference_iterations)


@dataclass(frozen=True)
class LogisticPrivateVsNonprivatePanel(Scenario):
    """Panel (c) of Figure 2: private vs non-private logistic risk vs n.

    ``__call__(kind, n, rng)``: series value ``kind`` selects the
    ε = 1 private fit (``"private(eps=1)"``) or the 60-step non-private
    Frank–Wolfe; sweep value is ``n``.  Returns the excess logistic
    risk at dimension ``d_fixed``.
    """

    features: DistributionSpec = None  # type: ignore[assignment]
    d_fixed: int = 0
    tau: float = 3.0
    fw_iterations: int = 60
    reference_iterations: int = 80

    def __call__(self, kind, n, rng):
        """One trial of one cell; see the class docstring for the axes."""
        data = _logistic_l1_data(n, self.d_fixed, self.features, rng)
        if kind == "private(eps=1)":
            solver = HeavyTailedDPFW(LOGISTIC, L1Ball(data.dimension),
                                     epsilon=1.0, tau=self.tau,
                                     schedule_mode="theory")
            w = solver.fit(data.features, data.labels, rng=rng).w
        else:
            w = FrankWolfe(LOGISTIC, L1Ball(self.d_fixed),
                           n_iterations=self.fw_iterations).fit(
                data.features, data.labels)
        return _logistic_excess(w, data, self.reference_iterations)


# ---------------------------------------------------------------------------
# Figures 3, 4 — "real" data (synthetic stand-ins), per-ε curves.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealDataPanel(Scenario):
    """Figures 3 and 4: excess risk vs n on a real-like dataset.

    ``__call__(eps, n, rng)``: the series value is the privacy budget
    ``eps`` (one curve per ε), the sweep value is the subsampled row
    count ``n``.  Returns the private fit's risk minus the best risk
    along a non-private Frank–Wolfe path (the running best is the
    honest optimum proxy: on the heavy-tailed stand-ins a single
    outlier row can make the *final* FW iterate overshoot).
    """

    dataset: str = ""
    loss: str = "squared"  # "squared" (Fig 3) | "logistic" (Fig 4)
    tau: float = 10.0
    fw_iterations: int = 120

    def __post_init__(self):
        """Reject mistyped mode fields at construction time."""
        _check_choice(self, "loss", ("squared", "logistic"))

    def __call__(self, eps, n, rng):
        """One trial of one cell; see the class docstring for the axes."""
        loss = SQUARED if self.loss == "squared" else LOGISTIC
        data = load_real_like(self.dataset, rng=rng, n_samples=n)
        ball = L1Ball(data.dimension)
        fw = FrankWolfe(loss, ball, n_iterations=self.fw_iterations,
                        record_history=True)
        fw.fit(data.features, data.labels)
        opt_risk = min(fw.risks_)
        solver = HeavyTailedDPFW(loss, ball, epsilon=eps, tau=self.tau,
                                 schedule_mode="theory")
        w_priv = solver.fit(data.features, data.labels, rng=rng).w
        return loss.value(w_priv, data.features, data.labels) - opt_risk


# ---------------------------------------------------------------------------
# Figures 7-9 — sparse linear regression (Algorithm 3).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseLinearPanel(Scenario):
    """Panels (a)/(b)/(c) of Figures 7-9: sparse linear error per d.

    ``__call__(d, x, rng)``: series value ``d`` is the ambient
    dimension; the sweep value ``x`` is ``epsilon``, ``n``, or ``s*``
    according to ``sweep``, with the other two pinned to ``n_fixed`` /
    ``s_fixed`` / ``eps_fixed``.  Returns the excess empirical squared
    risk (``metric="excess"``) or the parameter error ``||w - w*||_2``
    (``metric="param_error"`` — the honest choice when the label noise
    has no finite variance, as in Figure 8).
    """

    features: DistributionSpec = None  # type: ignore[assignment]
    noise: DistributionSpec = None  # type: ignore[assignment]
    sweep: str = "epsilon"  # "epsilon" | "n" | "s_star"
    metric: str = "excess"  # "excess" | "param_error"
    n_fixed: int = 0
    s_fixed: int = 0
    eps_fixed: float = 1.0
    delta: float = 1e-5

    def __post_init__(self):
        """Reject mistyped mode fields at construction time."""
        _check_choice(self, "sweep", ("epsilon", "n", "s_star"))
        _check_choice(self, "metric", ("excess", "param_error"))

    def __call__(self, d, x, rng):
        """One trial of one cell; see the class docstring for the axes."""
        n, s_star, eps = _resolve_sparse_axes(self, x)
        w_star = sparse_truth(d, s_star, rng, norm_bound=0.5)
        data = make_linear_data(n, w_star, self.features, self.noise, rng=rng)
        solver = HeavyTailedSparseLinearRegression(
            sparsity=s_star, epsilon=eps, delta=self.delta)
        w = solver.fit(data.features, data.labels, rng=rng).w
        if self.metric == "param_error":
            return float(np.linalg.norm(w - data.w_star))
        return _squared_excess(w, data)


# ---------------------------------------------------------------------------
# Figures 10, 11 — sparse regularised logistic regression (Algorithm 5).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseLogisticPanel(Scenario):
    """Panels (a)/(b)/(c) of Figures 10-11: sparse logistic risk per d.

    ``__call__(d, x, rng)``: series value ``d`` is the ambient
    dimension; the sweep value is ``epsilon``, ``n``, or ``s*``
    according to ``sweep`` (others pinned, as in
    :class:`SparseLinearPanel`).  Returns the excess ℓ2-regularised
    logistic risk against the planted ``w*``.
    """

    features: DistributionSpec = None  # type: ignore[assignment]
    noise: DistributionSpec = None  # type: ignore[assignment]
    sweep: str = "epsilon"
    tau: float = 6.0
    l2_penalty: float = 0.01
    n_fixed: int = 0
    s_fixed: int = 0
    eps_fixed: float = 1.0
    delta: float = 1e-5

    def __post_init__(self):
        """Reject mistyped mode fields at construction time."""
        _check_choice(self, "sweep", ("epsilon", "n", "s_star"))

    def __call__(self, d, x, rng):
        """One trial of one cell; see the class docstring for the axes."""
        n, s_star, eps = _resolve_sparse_axes(self, x)
        w_star = sparse_truth(d, s_star, rng, norm_bound=0.5)
        data = make_logistic_data(n, w_star, self.features, self.noise,
                                  rng=rng)
        loss = L2Regularized(LogisticLoss(), self.l2_penalty)
        solver = HeavyTailedSparseOptimizer(loss, sparsity=s_star,
                                            epsilon=eps, delta=self.delta,
                                            tau=self.tau)
        w = solver.fit(data.features, data.labels, rng=rng).w
        return (loss.value(w, data.features, data.labels)
                - loss.value(data.w_star, data.features, data.labels))


# ---------------------------------------------------------------------------
# Ablations.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatoniVsClippingAblation(Scenario):
    """Ablation: smoothed Catoni DP-FW vs clipped baselines.

    ``__call__(method, n, rng)``: series value ``method`` is
    ``"catoni-dpfw"`` (Algorithm 1), ``"clipped-dpfw"`` (regular DP-FW
    with gradient clipping), or ``"dp-sgd"``; sweep value is ``n``.
    Returns the excess empirical squared risk at dimension ``d``.
    """

    features: DistributionSpec = None  # type: ignore[assignment]
    noise: DistributionSpec = None  # type: ignore[assignment]
    d: int = 0
    delta: float = 1e-5

    def __call__(self, method, n, rng):
        """One trial of one cell; see the class docstring for the axes."""
        data = _l1_linear_data(n, self.d, self.features, self.noise, rng)
        if method == "catoni-dpfw":
            w = HeavyTailedDPFW(SQUARED, L1Ball(self.d), epsilon=1.0,
                                tau=5.0).fit(
                data.features, data.labels, rng=rng).w
        elif method == "clipped-dpfw":
            w = RegularDPFrankWolfe(SQUARED, L1Ball(self.d), epsilon=1.0,
                                    delta=self.delta, lipschitz_bound=5.0,
                                    n_iterations=20).fit(
                data.features, data.labels, rng=rng).w
        else:  # dp-sgd
            w = DPSGD(SQUARED, epsilon=1.0, delta=self.delta, clip_norm=5.0,
                      learning_rate=0.05, n_iterations=30,
                      projection=lambda v: project_l1_ball(v, 1.0)).fit(
                data.features, data.labels, rng=rng).w
        return _squared_excess(w, data)


@dataclass(frozen=True)
class PeelingVsDenseAblation(Scenario):
    """Ablation: Peeling (Algorithm 4) vs dense Laplace release.

    ``__call__(method, d, rng)``: series value ``method`` is
    ``"peeling"`` or any other label for the dense release; sweep value
    is the ambient dimension ``d``.  Returns the squared ℓ2 error of
    the released sparse mean on a contaminated Gaussian population with
    ``s`` planted coordinates and ``n`` samples.
    """

    n: int = 0
    s: int = 0

    def __call__(self, method, d, rng):
        """One trial of one cell; see the class docstring for the axes."""
        mean = np.zeros(d)
        support = rng.choice(d, size=self.s, replace=False)
        mean[support] = rng.choice([-0.5, 0.5], size=self.s)
        x = rng.normal(loc=mean, scale=1.0, size=(self.n, d))
        # heavy-tailed contamination
        mask = rng.uniform(size=self.n) < 0.01
        x[mask] *= 50.0
        est = CatoniEstimator(scale=optimal_scale(self.n, 2.0, 0.05))
        robust = est.estimate_columns(x)
        sens = est.sensitivity(self.n)
        if method == "peeling":
            out = peeling(robust, self.s, 1.0, 1e-5, sens, rng=rng).vector
        else:
            out = dense_laplace_release(robust, self.s, 1.0, 1e-5, sens,
                                        rng=rng).vector
        return float(np.sum((out - mean) ** 2))


@dataclass(frozen=True)
class ScaleParameterAblation(Scenario):
    """Ablation: the Catoni scale ``s`` trade-off of Theorem 2.

    ``__call__(_, multiplier, rng)``: the single series value is
    ignored (one curve); the sweep value multiplies the theory-optimal
    Catoni scale ``theory_scale``.  Returns the excess empirical
    squared risk of DP-FW run at the rescaled truncation.
    """

    features: DistributionSpec = None  # type: ignore[assignment]
    noise: DistributionSpec = None  # type: ignore[assignment]
    d: int = 0
    n: int = 0
    theory_scale: float = 1.0

    def __call__(self, _, multiplier, rng):
        """One trial of one cell; see the class docstring for the axes."""
        data = _l1_linear_data(self.n, self.d, self.features, self.noise,
                               rng)
        solver = HeavyTailedDPFW(SQUARED, L1Ball(self.d), epsilon=1.0,
                                 tau=5.0,
                                 scale=self.theory_scale * multiplier)
        res = solver.fit(data.features, data.labels, rng=rng)
        return _squared_excess(res.w, data)


@dataclass(frozen=True)
class TruncationThresholdAblation(Scenario):
    """Ablation: Algorithm 2's shrinkage threshold K (Theorem 5).

    ``__call__(_, multiplier, rng)``: the single series value is
    ignored; the sweep value multiplies the theory threshold
    ``theory_threshold``.  Returns the excess empirical squared risk of
    the private Lasso run at the rescaled threshold.
    """

    features: DistributionSpec = None  # type: ignore[assignment]
    noise: DistributionSpec = None  # type: ignore[assignment]
    d: int = 0
    n: int = 0
    theory_threshold: float = 1.0
    delta: float = 1e-5

    def __call__(self, _, multiplier, rng):
        """One trial of one cell; see the class docstring for the axes."""
        data = _l1_linear_data(self.n, self.d, self.features, self.noise,
                               rng)
        solver = HeavyTailedPrivateLasso(
            L1Ball(self.d), epsilon=1.0, delta=self.delta,
            threshold=self.theory_threshold * multiplier)
        res = solver.fit(data.features, data.labels, rng=rng)
        return _squared_excess(res.w, data)


def _composed_catoni_dpfw(data, epsilon, d, delta, rng):
    """Full-batch Catoni DP-FW under advanced composition (ε, δ)-DP."""
    n = data.n_samples
    solver = HeavyTailedDPFW(SQUARED, L1Ball(d), epsilon=epsilon, tau=5.0)
    schedule = solver.resolve_schedule(n)
    T = schedule.n_iterations
    catoni = CatoniEstimator(scale=schedule.scale, beta=schedule.beta)
    ball = L1Ball(d)
    eps_step = epsilon / (2.0 * math.sqrt(2.0 * T * math.log(1.0 / delta)))
    sensitivity = ball.l1_diameter() * catoni.sensitivity(n)
    mechanism = ExponentialMechanism(epsilon=eps_step,
                                     sensitivity=sensitivity)
    steps = classic_fw_steps(T)
    w = ball.initial_point()
    for t in range(T):
        grads = SQUARED.per_sample_gradients(w, data.features, data.labels)
        g_tilde = catoni.estimate_columns(grads)
        index = mechanism.select(ball.vertex_scores(g_tilde), rng=rng)
        w = (1.0 - steps[t]) * w + steps[t] * ball.vertex(index)
    return w


@dataclass(frozen=True)
class SplitVsComposedAblation(Scenario):
    """Ablation: Algorithm 1's data splitting vs full-batch composition.

    ``__call__(method, n, rng)``: series value ``method`` is
    ``"split (paper, eps-DP)"`` (disjoint per-iteration chunks, pure
    ε-DP) or any other label for the full-batch advanced-composition
    variant; sweep value is ``n``.  Returns the excess empirical
    squared risk at dimension ``d``.
    """

    features: DistributionSpec = None  # type: ignore[assignment]
    noise: DistributionSpec = None  # type: ignore[assignment]
    d: int = 0
    delta: float = 1e-5

    def __call__(self, method, n, rng):
        """One trial of one cell; see the class docstring for the axes."""
        data = _l1_linear_data(n, self.d, self.features, self.noise, rng)
        if method == "split (paper, eps-DP)":
            w = HeavyTailedDPFW(SQUARED, L1Ball(self.d), epsilon=1.0,
                                tau=5.0).fit(
                data.features, data.labels, rng=rng).w
        else:
            w = _composed_catoni_dpfw(data, 1.0, self.d, self.delta, rng)
        return _squared_excess(w, data)


# ---------------------------------------------------------------------------
# Extensions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RobustRegressionExtension(Scenario):
    """Extension (Theorem 3): DP-FW with the non-convex biweight loss.

    ``__call__(loss_name, x, rng)``: series value ``loss_name`` is
    ``"biweight"`` or any other label for the squared-loss reference;
    the sweep value is ``n`` (``sweep="n"``) or ``epsilon``
    (``sweep="epsilon"``, ``n`` pinned to ``n_fixed``).  Returns the
    parameter error ``||w - w*||_2`` under heavy symmetric noise.
    """

    features: DistributionSpec = None  # type: ignore[assignment]
    noise: DistributionSpec = None  # type: ignore[assignment]
    d: int = 0
    sweep: str = "n"  # "n" | "epsilon"
    n_fixed: int = 0
    eps_fixed: float = 1.0
    tau: float = 3.0
    biweight_c: float = 2.0

    def __post_init__(self):
        """Reject mistyped mode fields at construction time."""
        _check_choice(self, "sweep", ("n", "epsilon"))

    def __call__(self, loss_name, x, rng):
        """One trial of one cell; see the class docstring for the axes."""
        n, eps = ((x, self.eps_fixed) if self.sweep == "n"
                  else (self.n_fixed, x))
        data = _l1_linear_data(n, self.d, self.features, self.noise, rng)
        loss = (BiweightLoss(c=self.biweight_c)
                if loss_name == "biweight" else SquaredLoss())
        solver = HeavyTailedDPFW(loss, L1Ball(self.d), epsilon=eps,
                                 tau=self.tau)
        res = solver.fit(data.features, data.labels, rng=rng)
        return float(np.linalg.norm(res.w - data.w_star))


@dataclass(frozen=True)
class WeakMomentsExtension(Scenario):
    """Extension: the conclusion's (1+v)-th moment open problem.

    ``__call__(engine, n, rng)``: series value ``engine`` is
    ``"truncated(v=0.4)"`` (shrink-then-average gradients for the
    weak-moment regime) or any other label for the paper's smoothed
    Catoni estimator; sweep value is ``n``.  Returns the ℓ1 parameter
    error on infinite-variance Pareto features.
    """

    features: DistributionSpec = None  # type: ignore[assignment]
    noise: DistributionSpec = None  # type: ignore[assignment]
    d: int = 0
    tau: float = 3.0
    moment_order: float = 1.4

    def __call__(self, engine, n, rng):
        """One trial of one cell; see the class docstring for the axes."""
        data = _l1_linear_data(n, self.d, self.features, self.noise, rng)
        if engine == "truncated(v=0.4)":
            solver = HeavyTailedDPFW(SQUARED, L1Ball(self.d), epsilon=1.0,
                                     tau=self.tau,
                                     gradient_estimator="truncated",
                                     moment_order=self.moment_order)
        else:
            solver = HeavyTailedDPFW(SQUARED, L1Ball(self.d), epsilon=1.0,
                                     tau=self.tau)
        res = solver.fit(data.features, data.labels, rng=rng)
        return float(np.linalg.norm(res.w - data.w_star, ord=1))


__all__ = [
    "CatoniVsClippingAblation",
    "DistributionSpec",
    "L1LinearPanel",
    "L1PrivateVsNonprivatePanel",
    "LOGISTIC",
    "LogisticDPFWPanel",
    "LogisticPrivateVsNonprivatePanel",
    "PeelingVsDenseAblation",
    "RealDataPanel",
    "RobustRegressionExtension",
    "SQUARED",
    "ScaleParameterAblation",
    "SparseLinearPanel",
    "SparseLogisticPanel",
    "SplitVsComposedAblation",
    "TruncationThresholdAblation",
    "WeakMomentsExtension",
]

"""Synthetic stand-ins for the paper's four UCI datasets.

The paper evaluates Algorithm 1 on Blog Feedback (n=60021, d=281),
Twitter (n=583249, d=77), Winnipeg (n=325834, d=175) and Year Prediction
(n=515345, d=90), all from the UCI repository.  This environment has no
network access, so — per the reproduction substitution rule — we ship
generators that produce datasets with

* the same ``(n, d)`` shapes (scalable down for fast benches),
* heavy-tailed, strongly skewed marginals (log-normal scale mixtures
  with occasional extreme outliers, mimicking count-like web data),
* correlated columns (a low-rank factor structure, as real tabular data
  has), and
* a planted linear (Blog/Twitter) or logistic (Winnipeg/Year Prediction)
  signal plus label noise.

The experiments that use these datasets only probe error-versus-``(n,
eps)`` trends of the private solvers on a *fixed*, heavy-tailed design —
behaviour these generators preserve.  Absolute risk values will differ
from the paper's; only the shape of the trends is comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .._validation import check_positive_int
from ..registry import DATA, DATASETS
from ..rng import SeedLike, ensure_rng
from .synthetic import RegressionData, l1_ball_truth


@dataclass(frozen=True)
class RealDatasetSpec:
    """Shape and task metadata for one of the paper's UCI datasets."""

    name: str
    n_samples: int
    dimension: int
    task: str  # "linear" or "logistic"
    skew: float  # log-normal sigma of the column scale mixture
    outlier_fraction: float  # fraction of entries boosted by a Pareto factor


#: The four datasets of Figures 3 and 4 with the paper's exact (n, d).
REAL_DATASETS: Dict[str, RealDatasetSpec] = {
    "blog": RealDatasetSpec("blog", 60021, 281, "linear", 0.9, 0.01),
    "twitter": RealDatasetSpec("twitter", 583249, 77, "linear", 1.1, 0.02),
    "winnipeg": RealDatasetSpec("winnipeg", 325834, 175, "logistic", 0.7, 0.01),
    "year_prediction": RealDatasetSpec("year_prediction", 515345, 90, "logistic", 0.8, 0.01),
}

for _spec in REAL_DATASETS.values():
    DATASETS.register(_spec.name, _spec)


def _heavy_tailed_design(n: int, d: int, spec: RealDatasetSpec,
                         rng: np.random.Generator) -> np.ndarray:
    """Low-rank-plus-noise design with log-normal scales and outliers."""
    rank = max(2, d // 10)
    factors = rng.normal(size=(n, rank))
    loadings = rng.normal(size=(rank, d)) / np.sqrt(rank)
    base = factors @ loadings + 0.5 * rng.normal(size=(n, d))
    # Column-wise log-normal scale mixture: some features are wildly
    # larger than others, as in raw web/count data.
    column_scales = rng.lognormal(mean=0.0, sigma=spec.skew, size=d)
    X = np.abs(base) * column_scales  # non-negative, skewed marginals
    # Sparse multiplicative outliers: a small fraction of entries are
    # boosted by a Pareto factor, producing the heavy upper tail.
    mask = rng.uniform(size=(n, d)) < spec.outlier_fraction
    X = X * np.where(mask, 1.0 + rng.pareto(1.5, size=(n, d)), 1.0)
    # Robust per-column rescaling (divide by the 90th percentile of |x|),
    # the standard preprocessing step real pipelines apply.  Tails stay
    # heavy -- the Pareto outliers survive any quantile-based scaling --
    # but risks become O(1), keeping the experiments comparable across
    # datasets.
    scales = np.quantile(np.abs(X), 0.9, axis=0)
    X = X / np.maximum(scales, 1e-12)
    return X


def load_real_like(name: str, rng: SeedLike = None,
                   n_samples: int | None = None) -> RegressionData:
    """Generate the stand-in for one of the paper's UCI datasets.

    Parameters
    ----------
    name:
        One of ``"blog"``, ``"twitter"``, ``"winnipeg"``,
        ``"year_prediction"``.
    n_samples:
        Optional row-count override (the full paper sizes are hundreds of
        thousands of rows; benches use a few thousand).  The dimension is
        always the paper's.

    Returns
    -------
    RegressionData
        For logistic tasks, labels are in ``{-1, +1}``.  ``w_star`` is
        the *planted* signal — the paper instead computes the optimum by
        a non-private solver, which the harness also supports.
    """
    if name not in DATASETS:
        raise ValueError(f"unknown dataset {name!r}; choose from "
                         f"{sorted(DATASETS.names())}")
    spec = DATASETS.get(name)
    rng = ensure_rng(rng)
    n = spec.n_samples if n_samples is None else check_positive_int(n_samples, "n_samples")
    d = spec.dimension

    X = _heavy_tailed_design(n, d, spec, rng)
    w_star = l1_ball_truth(d, rng)
    signal = X @ w_star
    if spec.task == "linear":
        noise = rng.lognormal(mean=0.0, sigma=0.5, size=n)
        noise -= np.exp(0.125)  # centre: E Lognormal(0, .5^2) = e^{.125}
        y = signal + noise
    else:
        latent = signal + rng.logistic(scale=0.5, size=n)
        y = np.where(latent > 0, 1.0, -1.0)
    return RegressionData(features=X, labels=y, w_star=w_star)


@DATA.register("real_like")
def _make_real_like(rng: SeedLike = None, *, dataset: str,
                    n: int | None = None) -> RegressionData:
    """Registry adapter: a real-like dataset by name at ``n`` rows."""
    return load_real_like(dataset, rng=rng, n_samples=n)

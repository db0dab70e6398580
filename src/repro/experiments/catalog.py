"""The named catalog of every figure, ablation and extension bench.

Each entry registers, under the bench's canonical name (``"fig05_
lasso_lognormal"``, ``"ablation_peeling_vs_dense"``, ...), a builder
``build(full=False) -> BenchDef`` describing the bench as *data*: its
panels' point scenarios, grid values, seeds, trial counts, table titles
and the results-file stem.  The benches under ``benchmarks/`` and the
CLI (``python -m repro run <name>``) both consume these definitions, so
there is exactly one source of truth for what each experiment is — a
bench run and a CLI run of the same name produce bit-identical tables.

``full=False`` is the laptop scale every committed table under
``benchmarks/results/`` was produced at; ``full=True`` is the paper
scale (``REPRO_BENCH_FULL=1``).  Seeds, titles and grids reproduce the
historical bench constants exactly — changing any entry changes the
corresponding committed table and should be done deliberately, together
with it.

:func:`claimed_digests` enumerates the cache digests of every cell any
catalog grid (at either scale) can produce; ``python -m repro cache
prune`` deletes everything else from a cache directory, bounding cache
growth across fingerprint turnover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..core import HeavyTailedDPFW, HeavyTailedPrivateLasso
from ..data import DistributionSpec
from ..evaluation import Scenario, build_jobs, point_fingerprint, run_grid
from ..geometry import L1Ball
from ..losses import SquaredLoss
from ..registry import CATALOG
from .panels import (
    CatoniVsClippingAblation,
    L1LinearPanel,
    L1PrivateVsNonprivatePanel,
    LogisticDPFWPanel,
    LogisticPrivateVsNonprivatePanel,
    PeelingVsDenseAblation,
    RealDataPanel,
    RobustRegressionExtension,
    ScaleParameterAblation,
    SparseLinearPanel,
    SparseLogisticPanel,
    SplitVsComposedAblation,
    TruncationThresholdAblation,
    WeakMomentsExtension,
)


def default_trials(full: bool) -> int:
    """Trials per grid cell: the paper uses >= 20, the laptop scale 3."""
    return 10 if full else 3


@dataclass(frozen=True)
class PanelDef:
    """One (series × sweep × trial) grid of a bench, fully specified.

    The grid axes are named ``"x"`` / ``"series"`` when jobs are built
    (the engine's historical axis names — they enter every cell seed,
    so they are part of the reproducibility contract); ``x_name`` is
    the human-readable x-axis label the table prints.
    """

    point: Scenario
    title: str
    x_name: str
    sweep_values: Tuple[object, ...]
    series_values: Tuple[object, ...]
    seed: int
    n_trials: int

    def run(self, *, executor="serial", cache=None, n_trials=None,
            max_workers=None, recorder=None, flight=None) -> Dict[object, List[float]]:
        """Evaluate the panel's grid; returns ``series -> mean curve``.

        ``n_trials`` overrides the panel's trial count (changing the
        statistics *and* the cache digests); executor/cache knobs are
        forwarded to :func:`repro.evaluation.run_grid` unchanged, as is
        ``flight`` (a :class:`repro.evaluation.SingleFlight` coalescing
        concurrent computations of the same cells — the serving tier's
        single-flight guarantee).

        ``recorder`` (a :class:`repro.results.RunRecorder`) captures
        the panel's full provenance — grid axes, seed, trial count,
        point fingerprint, per-cell job digests and stats — via the
        engine's ``on_cell`` hook.  Both the pytest benches and
        ``python -m repro run`` record through this one method, so a
        bench run and a CLI run of the same name produce identical
        records.
        """
        trials = self.n_trials if n_trials is None else n_trials
        cells, on_cell = [], None
        if recorder is not None:
            from ..results import cell_capture
            cells, on_cell = cell_capture()
        # The same string run_grid would derive; computed once, it keys
        # the cells and is recorded as the panel's fingerprint.
        fingerprint = point_fingerprint(self.point)
        result = run_grid(self.point, "x", list(self.sweep_values),
                          "series", list(self.series_values),
                          n_trials=trials, seed=self.seed, executor=executor,
                          max_workers=max_workers, cache=cache,
                          code_tag=fingerprint, flight=flight,
                          on_cell=on_cell)
        if recorder is not None:
            recorder.add_panel(
                title=self.title, x_name=self.x_name, sweep_name="x",
                series_name="series", sweep_values=self.sweep_values,
                series_values=self.series_values, seed=self.seed,
                n_trials=trials,
                point_fingerprint=fingerprint, cells=cells)
        return {series: [stat.mean for stat in result.series[series]]
                for series in self.series_values}

    def jobs(self, n_trials=None):
        """The panel's :class:`~repro.evaluation.TrialJob` s (no execution)."""
        trials = self.n_trials if n_trials is None else n_trials
        return build_jobs("x", list(self.sweep_values),
                          "series", list(self.series_values), trials,
                          self.seed, code_token=point_fingerprint(self.point))


@dataclass(frozen=True)
class BenchDef:
    """A named bench: the ordered panels behind one results table."""

    name: str
    result_stem: str
    panels: Tuple[PanelDef, ...]


def bench(name: str, full: bool = False) -> BenchDef:
    """Build the named catalog bench at laptop (default) or paper scale."""
    return CATALOG.get(name)(full=full)


def bench_recorder(definition: BenchDef, *, executor: str = "serial",
                   full: bool = False):
    """A :class:`repro.results.RunRecorder` labelled for one bench run.

    Hand it to each panel's :meth:`PanelDef.run` and ``finalize()``
    after the last panel; the pytest benches and ``python -m repro run``
    both build their records through this helper, so the two paths
    cannot label records differently.
    """
    from ..results import RunRecorder
    return RunRecorder(kind="bench", name=definition.name,
                       result_stem=definition.result_stem,
                       executor=executor, full=full)


def bench_names() -> Tuple[str, ...]:
    """All catalog bench names, sorted."""
    return CATALOG.names()


def claimed_digests(scales: Iterable[bool] = (False, True)) -> set:
    """Cache digests every catalog grid claims, at the given scales.

    A cell file whose digest is in this set belongs to a current
    experiment (default trial counts); anything else in a cache
    directory is an orphan — produced by edited code, a removed
    scenario, or ad-hoc runs — and safe to prune.
    """
    claimed: set = set()
    for name in bench_names():
        for full in scales:
            for panel in bench(name, full=full).panels:
                claimed.update(job.digest for job in panel.jobs())
    return claimed


# ---------------------------------------------------------------------------
# Figures 1, 5, 6 — ℓ1-ball linear regression (DP-FW / private Lasso).
# ---------------------------------------------------------------------------

#: The paper's ε grid, shared by most panels.
_EPS_SWEEP = (0.5, 1.0, 2.0, 4.0)


def _l1_linear_bench(name: str, stem: str, solver: str, features, noise,
                     d_series, n_fixed, n_sweep, d_fixed, seed: int,
                     titles: Tuple[str, str, str], full: bool) -> BenchDef:
    """The shared three-panel layout of Figures 1, 5 and 6."""
    trials = default_trials(full)
    point_a = L1LinearPanel(solver=solver, features=features, noise=noise,
                            sweep="epsilon", n_fixed=n_fixed)
    point_b = L1LinearPanel(solver=solver, features=features, noise=noise,
                            sweep="n", eps_fixed=1.0)
    point_c = L1PrivateVsNonprivatePanel(solver=solver, features=features,
                                         noise=noise, d_fixed=d_fixed)
    return BenchDef(name=name, result_stem=stem, panels=(
        PanelDef(point_a, titles[0], "epsilon", _EPS_SWEEP,
                 tuple(d_series), seed, trials),
        PanelDef(point_b, titles[1], "n", tuple(n_sweep),
                 tuple(d_series), seed + 1, trials),
        PanelDef(point_c, titles[2], "n", tuple(n_sweep),
                 ("private(eps=1)", "non-private"), seed + 2, trials),
    ))


@CATALOG.register("fig01_dpfw_linear")
def _fig01(full: bool = False) -> BenchDef:
    """Figure 1 — Algorithm 1, linear regression, log-normal features."""
    features = DistributionSpec("lognormal", {"sigma": 0.6})
    noise = DistributionSpec("gaussian", {"scale": 0.1})
    d_series = (200, 400, 800) if full else (20, 80)
    n_fixed = 10_000 if full else 3000
    n_sweep = (10_000, 30_000, 90_000) if full else (2000, 4000, 8000)
    d_fixed = 400 if full else 40
    return _l1_linear_bench(
        "fig01_dpfw_linear", "fig01", "dpfw", features, noise, d_series,
        n_fixed, n_sweep, d_fixed, 10,
        (f"Figure 1(a): excess risk vs epsilon (n={n_fixed}, linear, "
         "lognormal x)",
         "Figure 1(b): excess risk vs n (eps=1)",
         f"Figure 1(c): private vs non-private (d={d_fixed})"), full)


@CATALOG.register("fig05_lasso_lognormal")
def _fig05(full: bool = False) -> BenchDef:
    """Figure 5 — Algorithm 2 (private Lasso), log-normal features."""
    features = DistributionSpec("lognormal", {"sigma": 0.6})
    noise = DistributionSpec("gaussian", {"scale": 0.1})
    d_series = (100, 200, 400) if full else (20, 80)
    n_fixed = 10_000 if full else 4000
    n_sweep = (10_000, 30_000, 90_000) if full else (4000, 10_000, 24_000)
    d_fixed = 200 if full else 40
    return _l1_linear_bench(
        "fig05_lasso_lognormal", "fig05", "lasso", features, noise, d_series,
        n_fixed, n_sweep, d_fixed, 50,
        (f"Figure 5(a): LASSO excess risk vs eps (n={n_fixed})",
         "Figure 5(b): LASSO excess risk vs n (eps=1)",
         f"Figure 5(c): private vs non-private (d={d_fixed})"), full)


@CATALOG.register("fig06_lasso_student_t")
def _fig06(full: bool = False) -> BenchDef:
    """Figure 6 — Algorithm 2 (private Lasso), Student-t features."""
    features = DistributionSpec("student_t", {"df": 10.0})
    noise = DistributionSpec("gaussian", {"scale": 0.1})
    d_series = (100, 200, 400) if full else (20, 80)
    n_fixed = 100_000 if full else 4000
    n_sweep = (20_000, 60_000, 180_000) if full else (4000, 10_000, 24_000)
    d_fixed = 200 if full else 40
    return _l1_linear_bench(
        "fig06_lasso_student_t", "fig06", "lasso", features, noise, d_series,
        n_fixed, n_sweep, d_fixed, 60,
        ("Figure 6(a): LASSO (t-dist) excess risk vs eps",
         "Figure 6(b): LASSO (t-dist) excess risk vs n (eps=1)",
         f"Figure 6(c): private vs non-private (d={d_fixed})"), full)


# ---------------------------------------------------------------------------
# Figure 2 — ℓ1-ball logistic regression.
# ---------------------------------------------------------------------------

@CATALOG.register("fig02_dpfw_logistic")
def _fig02(full: bool = False) -> BenchDef:
    """Figure 2 — Algorithm 1, logistic regression, log-normal features."""
    features = DistributionSpec("lognormal", {"sigma": 0.6})
    d_series = (200, 400, 800) if full else (20, 80)
    n_fixed = 10_000 if full else 3000
    # Wider eps range + extra trials: with noiseless sign labels the
    # logistic excess is small and noisy, so the trend needs more span.
    eps_sweep = (0.25, 1.0, 4.0, 16.0)
    n_sweep = (10_000, 30_000, 90_000) if full else (2000, 4000, 8000)
    d_fixed = 400 if full else 40
    trials = default_trials(full)
    point_a = LogisticDPFWPanel(features=features, sweep="epsilon",
                                n_fixed=n_fixed)
    point_b = LogisticDPFWPanel(features=features, sweep="n", eps_fixed=1.0)
    point_c = LogisticPrivateVsNonprivatePanel(features=features,
                                               d_fixed=d_fixed)
    return BenchDef(name="fig02_dpfw_logistic", result_stem="fig02", panels=(
        PanelDef(point_a,
                 f"Figure 2(a): excess logistic risk vs epsilon (n={n_fixed})",
                 "epsilon", eps_sweep, d_series, 20, 5),
        # Panel (b) is essentially flat at bench-scale n; extra trials
        # tame a ~1.4x seed-luck swing (see the bench's shape asserts).
        PanelDef(point_b, "Figure 2(b): excess logistic risk vs n (eps=1)",
                 "n", n_sweep, d_series, 21, max(trials, 6)),
        PanelDef(point_c, f"Figure 2(c): private vs non-private (d={d_fixed})",
                 "n", n_sweep, ("private(eps=1)", "non-private"), 22, trials),
    ))


# ---------------------------------------------------------------------------
# Figures 3, 4 — "real" data (synthetic stand-ins), per-ε curves.
# ---------------------------------------------------------------------------

def _real_data_bench(name: str, stem: str, figure: str, loss: str,
                     datasets: Tuple[str, ...], seed_base: int,
                     full: bool) -> BenchDef:
    """Figures 3/4: one panel per dataset, curves per ε, sweep over n."""
    n_sweep = (20_000, 40_000, 60_000) if full else (1500, 3000, 6000)
    eps_series = (0.5, 1.0, 2.0)
    trials = default_trials(full)
    risk = "excess risk" if loss == "squared" else "excess logistic risk"
    panels = []
    for dataset in datasets:
        point = RealDataPanel(dataset=dataset, loss=loss, tau=10.0)
        title = (f"Figure {figure} ({dataset}): {risk} vs n per eps"
                 if loss == "squared"
                 else f"Figure {figure} ({dataset}): {risk} vs n")
        panels.append(PanelDef(
            point, title, "n", n_sweep, eps_series,
            seed_base + sum(ord(c) for c in dataset) % 7, trials))
    return BenchDef(name=name, result_stem=stem, panels=tuple(panels))


@CATALOG.register("fig03_dpfw_real_linear")
def _fig03(full: bool = False) -> BenchDef:
    """Figure 3 — Algorithm 1 on Blog/Twitter stand-ins, squared loss."""
    return _real_data_bench("fig03_dpfw_real_linear", "fig03", "3",
                            "squared", ("blog", "twitter"), 30, full)


@CATALOG.register("fig04_dpfw_real_logistic")
def _fig04(full: bool = False) -> BenchDef:
    """Figure 4 — Algorithm 1 on Winnipeg/Year stand-ins, logistic loss."""
    return _real_data_bench("fig04_dpfw_real_logistic", "fig04", "4",
                            "logistic", ("winnipeg", "year_prediction"), 40,
                            full)


# ---------------------------------------------------------------------------
# Figures 7-11 — the sparse-learning figures (Alg 3 linear, Alg 5 logistic).
# ---------------------------------------------------------------------------

def _sparse_grids(full: bool):
    """The grid constants every sparse figure shares."""
    d_series = (500, 1000, 2000) if full else (50, 150)
    s_star_sweep = (10, 20, 40) if full else (2, 5, 10)
    return d_series, _EPS_SWEEP, s_star_sweep


def _sparse_linear_bench(name: str, stem: str, features, noise, seed: int,
                         full: bool, metric: str = "excess") -> BenchDef:
    """Figures 7-9: the three Algorithm 3 panels for one noise law."""
    d_series, eps_sweep, s_star_sweep = _sparse_grids(full)
    n_fixed = 50_000 if full else 16_000
    n_sweep = (20_000, 50_000, 100_000) if full else (8000, 16_000, 32_000)
    s_fixed = 20 if full else 5
    trials = default_trials(full)
    point_a = SparseLinearPanel(features=features, noise=noise,
                                sweep="epsilon", metric=metric,
                                n_fixed=n_fixed, s_fixed=s_fixed)
    point_b = SparseLinearPanel(features=features, noise=noise, sweep="n",
                                metric=metric, s_fixed=s_fixed, eps_fixed=1.0)
    point_c = SparseLinearPanel(features=features, noise=noise,
                                sweep="s_star", metric=metric,
                                n_fixed=n_fixed, eps_fixed=1.0)
    return BenchDef(name=name, result_stem=stem, panels=(
        PanelDef(point_a, f"{stem}(a): excess risk vs eps "
                 f"(n={n_fixed}, s*={s_fixed})", "epsilon", eps_sweep,
                 d_series, seed, trials),
        PanelDef(point_b, f"{stem}(b): excess risk vs n (eps=1)", "n",
                 n_sweep, d_series, seed + 1, trials),
        PanelDef(point_c, f"{stem}(c): excess risk vs s* (eps=1)", "s*",
                 s_star_sweep, d_series, seed + 2, trials),
    ))


def _sparse_logistic_bench(name: str, stem: str, features, noise, seed: int,
                           tau: float, full: bool,
                           l2_penalty: float = 0.01) -> BenchDef:
    """Figures 10-11: the three Algorithm 5 panels for one data law."""
    d_series, eps_sweep, s_star_sweep = _sparse_grids(full)
    n_fixed = 8000 if full else 6000
    n_sweep = (8000, 16_000, 32_000) if full else (4000, 8000, 16_000)
    s_fixed = 20 if full else 5
    trials = default_trials(full)
    common = dict(features=features, noise=noise, tau=tau,
                  l2_penalty=l2_penalty)
    point_a = SparseLogisticPanel(sweep="epsilon", n_fixed=n_fixed,
                                  s_fixed=s_fixed, **common)
    point_b = SparseLogisticPanel(sweep="n", s_fixed=s_fixed, eps_fixed=1.0,
                                  **common)
    point_c = SparseLogisticPanel(sweep="s_star", n_fixed=n_fixed,
                                  eps_fixed=1.0, **common)
    return BenchDef(name=name, result_stem=stem, panels=(
        PanelDef(point_a, f"{stem}(a): excess risk vs eps "
                 f"(n={n_fixed}, s*={s_fixed})", "epsilon", eps_sweep,
                 d_series, seed, trials),
        PanelDef(point_b, f"{stem}(b): excess risk vs n (eps=1)", "n",
                 n_sweep, d_series, seed + 1, trials),
        PanelDef(point_c, f"{stem}(c): excess risk vs s* (eps=1)", "s*",
                 s_star_sweep, d_series, seed + 2, trials),
    ))


@CATALOG.register("fig07_sparse_lognormal_noise")
def _fig07(full: bool = False) -> BenchDef:
    """Figure 7 — Algorithm 3, Gaussian features, log-normal noise."""
    return _sparse_linear_bench(
        "fig07_sparse_lognormal_noise", "fig07",
        DistributionSpec("gaussian", {"scale": 2.24}),  # N(0, 5): var 5
        DistributionSpec("lognormal", {"sigma": 0.5}), 70, full)


@CATALOG.register("fig08_sparse_loglogistic_noise")
def _fig08(full: bool = False) -> BenchDef:
    """Figure 8 — Algorithm 3, log-logistic c=0.1 noise (no finite mean).

    The excess empirical risk is meaningless under infinite-mean noise,
    so this figure reports the parameter error ``||w - w*||_2``.
    """
    return _sparse_linear_bench(
        "fig08_sparse_loglogistic_noise", "fig08",
        DistributionSpec("gaussian", {"scale": 2.24}),
        DistributionSpec("log_logistic", {"c": 0.1}), 80, full,
        metric="param_error")


@CATALOG.register("fig09_sparse_loggamma_noise")
def _fig09(full: bool = False) -> BenchDef:
    """Figure 9 — Algorithm 3, Gaussian features, log-gamma noise."""
    return _sparse_linear_bench(
        "fig09_sparse_loggamma_noise", "fig09",
        DistributionSpec("gaussian", {"scale": 2.24}),
        DistributionSpec("log_gamma", {"c": 0.5}), 90, full)


@CATALOG.register("fig10_sparse_logistic_gaussian")
def _fig10(full: bool = False) -> BenchDef:
    """Figure 10 — Algorithm 5, Gaussian features, logistic latent noise."""
    return _sparse_logistic_bench(
        "fig10_sparse_logistic_gaussian", "fig10",
        DistributionSpec("gaussian", {"scale": 2.24}),
        DistributionSpec("logistic", {"scale": 0.5}), 100, tau=6.0,
        full=full)


@CATALOG.register("fig11_sparse_logistic_laplace")
def _fig11(full: bool = False) -> BenchDef:
    """Figure 11 — Algorithm 5, Laplace features, log-gamma latent noise."""
    return _sparse_logistic_bench(
        "fig11_sparse_logistic_laplace", "fig11",
        DistributionSpec("laplace", {"scale": 5.0}),
        DistributionSpec("log_gamma", {"c": 0.5}), 110, tau=30.0, full=full)


# ---------------------------------------------------------------------------
# Ablations.
# ---------------------------------------------------------------------------

@CATALOG.register("ablation_catoni_vs_clipping")
def _ablation_catoni_vs_clipping(full: bool = False) -> BenchDef:
    """Ablation — smoothed Catoni DP-FW vs clipped DP-FW and DP-SGD."""
    features = DistributionSpec("lognormal", {"sigma": 0.8})
    noise = DistributionSpec("gaussian", {"scale": 0.1})
    n_sweep = (20_000, 60_000) if full else (4000, 12_000)
    point = CatoniVsClippingAblation(features=features, noise=noise, d=60,
                                     delta=1e-5)
    return BenchDef(
        name="ablation_catoni_vs_clipping",
        result_stem="ablation_catoni_vs_clipping",
        panels=(PanelDef(
            point,
            "Ablation: Catoni DP-FW vs clipped baselines (excess risk)",
            "n", n_sweep, ("catoni-dpfw", "clipped-dpfw", "dp-sgd"), 200,
            default_trials(full)),))


@CATALOG.register("ablation_peeling_vs_dense")
def _ablation_peeling_vs_dense(full: bool = False) -> BenchDef:
    """Ablation — Peeling (Algorithm 4) vs dense Laplace release."""
    n = 20_000 if full else 5000
    d_sweep = (100, 400, 1600) if full else (50, 200, 800)
    point = PeelingVsDenseAblation(n=n, s=5)
    return BenchDef(
        name="ablation_peeling_vs_dense", result_stem="ablation_peeling",
        panels=(PanelDef(
            point,
            "Ablation: sparse mean sq. error, Peeling vs dense release",
            "d", d_sweep, ("peeling", "dense-laplace"), 220,
            default_trials(full)),))


@CATALOG.register("ablation_scale_parameter")
def _ablation_scale_parameter(full: bool = False) -> BenchDef:
    """Ablation — the Catoni scale trade-off of Theorem 2."""
    features = DistributionSpec("lognormal", {"sigma": 0.6})
    noise = DistributionSpec("gaussian", {"scale": 0.1})
    d = 40
    n = 20_000 if full else 8000
    theory_scale = HeavyTailedDPFW(SquaredLoss(), L1Ball(d), epsilon=1.0,
                                   tau=5.0).resolve_schedule(n).scale
    point = ScaleParameterAblation(features=features, noise=noise, d=d, n=n,
                                   theory_scale=theory_scale)
    return BenchDef(
        name="ablation_scale_parameter", result_stem="ablation_scale",
        panels=(PanelDef(
            point,
            f"Ablation: excess risk vs scale multiplier "
            f"(theory s = {theory_scale:.2f})",
            "s_multiplier", (0.02, 0.2, 1.0, 5.0, 50.0), ("excess_risk",),
            210, default_trials(full)),))


@CATALOG.register("ablation_split_vs_composed")
def _ablation_split_vs_composed(full: bool = False) -> BenchDef:
    """Ablation — Algorithm 1's data splitting vs full-batch composition."""
    features = DistributionSpec("lognormal", {"sigma": 0.6})
    noise = DistributionSpec("gaussian", {"scale": 0.1})
    n_sweep = (20_000, 60_000) if full else (4000, 12_000)
    point = SplitVsComposedAblation(features=features, noise=noise, d=40,
                                    delta=1e-5)
    return BenchDef(
        name="ablation_split_vs_composed", result_stem="ablation_split",
        panels=(PanelDef(
            point,
            "Ablation: data splitting vs advanced composition (excess risk)",
            "n", n_sweep,
            ("split (paper, eps-DP)", "composed ((eps,delta)-DP)"), 230,
            default_trials(full)),))


@CATALOG.register("ablation_truncation_threshold")
def _ablation_truncation_threshold(full: bool = False) -> BenchDef:
    """Ablation — Algorithm 2's shrinkage threshold K (Theorem 5)."""
    features = DistributionSpec("lognormal", {"sigma": 0.6})
    noise = DistributionSpec("gaussian", {"scale": 0.1})
    d = 40
    n = 30_000 if full else 12_000
    k_theory = HeavyTailedPrivateLasso(L1Ball(d), epsilon=1.0,
                                       delta=1e-5).resolve_schedule(n).threshold
    point = TruncationThresholdAblation(features=features, noise=noise, d=d,
                                        n=n, theory_threshold=k_theory)
    return BenchDef(
        name="ablation_truncation_threshold",
        result_stem="ablation_threshold",
        panels=(PanelDef(
            point,
            f"Ablation: LASSO excess risk vs K multiplier "
            f"(theory K = {k_theory:.2f})",
            "K_multiplier", (0.05, 0.3, 1.0, 3.0, 20.0), ("excess_risk",),
            240, default_trials(full)),))


# ---------------------------------------------------------------------------
# Extensions.
# ---------------------------------------------------------------------------

@CATALOG.register("ext_robust_regression")
def _ext_robust_regression(full: bool = False) -> BenchDef:
    """Extension — Theorem 3: DP-FW with the non-convex biweight loss."""
    features = DistributionSpec("lognormal", {"sigma": 0.6})
    noise = DistributionSpec("student_t", {"df": 3.0})
    n_sweep = (20_000, 60_000) if full else (4000, 16_000)
    trials = default_trials(full)
    point_n = RobustRegressionExtension(features=features, noise=noise, d=40,
                                        sweep="n", eps_fixed=1.0)
    point_eps = RobustRegressionExtension(features=features, noise=noise,
                                          d=40, sweep="epsilon",
                                          n_fixed=n_sweep[0])
    return BenchDef(
        name="ext_robust_regression", result_stem="ext_robust_regression",
        panels=(
            PanelDef(point_n,
                     "Extension (Thm 3): parameter error vs n, biweight vs "
                     "squared loss under t(3) noise",
                     "n", n_sweep, ("biweight", "squared"), 300, trials),
            PanelDef(point_eps,
                     "Extension (Thm 3): parameter error vs eps "
                     "(biweight loss)",
                     "epsilon", _EPS_SWEEP, ("biweight",), 301, trials),
        ))


@CATALOG.register("ext_weak_moments")
def _ext_weak_moments(full: bool = False) -> BenchDef:
    """Extension — the conclusion's (1+v)-th moment open problem."""
    features = DistributionSpec("pareto", {"tail_index": 1.45})
    noise = DistributionSpec("gaussian", {"scale": 0.1})
    n_sweep = (20_000, 80_000) if full else (5000, 20_000)
    point = WeakMomentsExtension(features=features, noise=noise, d=30,
                                 moment_order=1.4)
    return BenchDef(
        name="ext_weak_moments", result_stem="ext_weak_moments",
        panels=(PanelDef(
            point,
            "Extension: l1 parameter error under infinite-variance "
            "features (Pareto 1.45)",
            "n", n_sweep, ("truncated(v=0.4)", "catoni"), 310,
            default_trials(full)),))

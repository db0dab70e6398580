"""Shared machinery for the figure-reproduction benchmarks.

Each ``test_figXX_*`` benchmark regenerates one figure of the paper at a
laptop-scale size: it sweeps the figure's x-axis, prints the same
(x, series) rows the paper plots and asserts the robust qualitative
shapes (finiteness; the headline monotonicity with generous slack).
Benches write nothing: ``benchmarks/results/`` is the committed record
store, and ``python -m repro run <name>`` is the one command that
re-pins it.

The paper's sizes (n up to 9e4 per point, 20 trials) would take hours;
``REPRO_BENCH_FULL=1`` switches to paper scale.  What each bench *is* —
panel scenarios, grids, seeds, trial counts, table titles — lives in
the named catalog (:mod:`repro.experiments.catalog`); the test files
call :func:`run_catalog_bench` and assert figure shapes on the returned
panels, and ``python -m repro run <name>`` reproduces the identical
tables from the same definitions.  See ``docs/engine.md`` for the
engine architecture and the executor/cache environment knobs.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.evaluation import EXECUTORS
from repro.service import ServiceCore

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

#: Executor for the sweep grids: "serial" (default), "thread", or
#: "fleet" (the work-queue executor of ``repro.fleet``).  Every
#: figure/ablation point is a picklable scenario dataclass (see
#: ``repro.experiments.panels``), so the fleet can ship the grid cells
#: to its workers.  All three are bit-identical.  An unknown
#: value fails here, at import — not as a confusing engine error after
#: the first expensive data generation.
EXECUTOR = os.environ.get("REPRO_BENCH_EXECUTOR", "serial")
if EXECUTOR not in EXECUTORS:
    raise ValueError(
        f"unknown REPRO_BENCH_EXECUTOR value {EXECUTOR!r}; valid options: "
        f"{', '.join(EXECUTORS)}")

#: Optional on-disk cell cache; rerunning a bench recomputes only the
#: cells missing from this directory.  Keys include each scenario's
#: code fingerprint; ``python -m repro cache prune`` garbage-collects
#: cells no current catalog grid claims.  An unusable directory fails
#: here, at import, instead of silently running uncached.
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE") or None
if CACHE_DIR is not None:
    try:
        Path(CACHE_DIR).mkdir(parents=True, exist_ok=True)
        _probe = Path(CACHE_DIR) / ".write-probe"
        _probe.write_text("")
        _probe.unlink()
    except OSError as exc:
        raise ValueError(
            f"REPRO_BENCH_CACHE directory {CACHE_DIR!r} is not writable "
            f"({exc}); fix or unset the variable") from exc

#: The one service core every bench in a pytest session runs through:
#: shared cell cache, shared single-flight map — exactly the tier the
#: CLI and ``python -m repro serve`` sit on, which is what makes bench,
#: CLI, and served runs bit-identical (equal ``run_id``).
CORE = ServiceCore(cache=CACHE_DIR)


def run_catalog_bench(name: str) -> List[Dict[object, List[float]]]:
    """Run every panel of the named catalog bench; print its tables.

    The single bench entry point: grids, seeds, trial counts and titles
    come from the catalog, and execution goes through the same
    :meth:`~repro.service.ServiceCore.run_bench` the CLI and the HTTP
    server use (with the bench env knobs applied), so each printed
    table is byte-identical to the one ``python -m repro run <name>``
    writes.  Nothing is persisted: the committed ``.txt`` tables and
    ``.json`` records under ``benchmarks/results/`` are what the checks
    in ``tests/`` compare against, so a bench run must never rewrite
    them — not at paper scale (``REPRO_BENCH_FULL=1``), not under
    another executor.  Returns the panels' ``series -> mean curve``
    mappings, in catalog order, for the caller's shape assertions.
    """
    run = CORE.run_bench(name, full=FULL, executor=EXECUTOR)
    for block in run.blocks:
        print(block)
    return list(run.panels)


def assert_finite(series: Dict[object, List[float]]) -> None:
    """Every swept value must be a finite number."""
    for values in series.values():
        assert np.all(np.isfinite(values)), f"non-finite bench values: {values}"


def assert_trending_down(series: Dict[object, List[float]],
                         slack: float = 0.15, floor: float = 0.05) -> None:
    """End point must not exceed start point by more than the allowance.

    DP runs are noisy at bench scale; we assert the robust end-to-end
    trend rather than per-step monotonicity.  The allowance is
    ``slack * max(|start|, floor)`` so the check stays meaningful when
    values hover near (or below) zero.
    """
    for label, values in series.items():
        allowance = slack * max(abs(values[0]), floor)
        assert values[-1] <= values[0] + allowance + 1e-9, (
            f"series {label} trends up: {values}"
        )


def assert_dimension_insensitive(series: Dict[object, List[float]],
                                 factor: float = 4.0) -> None:
    """Across series (dimensions), mean errors must stay within ``factor``.

    This is the paper's headline log-d claim: d=200 vs d=800 curves
    nearly coincide.  A poly(d) method would blow past any constant
    factor.
    """
    means = [float(np.mean(v)) for v in series.values()]
    lo = max(min(means), 1e-6)
    assert max(means) <= factor * lo, f"dimension sensitivity too strong: {means}"

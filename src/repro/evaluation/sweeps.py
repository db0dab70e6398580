"""Sweep results — the (x-axis, series) structure of the paper's figures.

Every panel in Figures 1–11 is "error versus one swept variable, one
curve per value of a second variable", each point averaged over
repeated trials (the paper uses at least 20).
:func:`repro.evaluation.engine.run_grid` evaluates such a grid and
returns a :class:`SweepResult` of per-cell :class:`TrialStats`, whose
``format_table`` output is what the benches print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass(frozen=True)
class TrialStats:
    """Mean / spread summary of one metric across trials."""

    mean: float
    std: float
    minimum: float
    maximum: float
    n_trials: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "TrialStats":
        """Summarise raw per-trial metric values (must be non-empty)."""
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise ValueError("cannot summarise zero trials")
        return cls(mean=float(arr.mean()), std=float(arr.std(ddof=0)),
                   minimum=float(arr.min()), maximum=float(arr.max()),
                   n_trials=int(arr.size))

    @property
    def stderr(self) -> float:
        """Standard error of the mean, from the sample standard deviation.

        ``std`` is the population (``ddof=0``) figure for backward
        compatibility; the standard error uses the unbiased sample
        estimator (``ddof=1``), i.e. ``std * sqrt(n/(n-1)) / sqrt(n)``
        which simplifies to ``std / sqrt(n - 1)``.  A single trial
        carries no spread information, so ``n_trials == 1`` returns 0.0
        rather than NaN.
        """
        if self.n_trials < 2:
            return 0.0
        return self.std / np.sqrt(self.n_trials - 1)


@dataclass
class SweepResult:
    """The data behind one figure panel.

    Attributes
    ----------
    sweep_name, series_name:
        Axis labels (e.g. ``"epsilon"`` and ``"d"``).
    sweep_values:
        The x-axis values.
    series:
        Mapping from series value (e.g. a dimension) to the list of
        per-x :class:`TrialStats`.
    """

    sweep_name: str
    series_name: str
    sweep_values: List[object]
    series: Dict[object, List[TrialStats]] = field(default_factory=dict)

    def means(self, series_value: object) -> np.ndarray:
        """Mean-error curve for one series."""
        return np.array([stat.mean for stat in self.series[series_value]])

    def format_table(self, title: str = "", float_format: str = "{:.5f}"
                     ) -> str:
        """Render the panel as the aligned text table the benches print."""
        header_cells = [f"{self.sweep_name:>12}"] + [
            f"{self.series_name}={value!s:>8}" for value in self.series
        ]
        lines = []
        if title:
            lines.append(title)
        lines.append(" | ".join(header_cells))
        lines.append("-" * len(lines[-1]))
        for i, x in enumerate(self.sweep_values):
            cells = [f"{x!s:>12}"]
            for value in self.series:
                cells.append(f"{float_format.format(self.series[value][i].mean):>{len(f'{self.series_name}={value!s:>8}')}}")
            lines.append(" | ".join(cells))
        return "\n".join(lines)

    def is_decreasing(self, series_value: object, slack: float = 0.0) -> bool:
        """Whether the mean curve decreases from first to last x (with slack).

        The benches' shape checks use end-point comparison rather than
        full monotonicity because individual DP runs are noisy.  The
        allowance is ``slack * |curve[0]|`` for a meaningfully nonzero
        start and plain ``slack`` (an absolute allowance) when the start
        is zero up to floating dust (|start| < 1e-9), so a zero or
        negative baseline still gets headroom instead of a silently
        tighter — or inverted — check.
        """
        curve = self.means(series_value)
        start, end = float(curve[0]), float(curve[-1])
        base = abs(start)
        allowance = slack * base if base >= 1e-9 else slack
        return bool(end <= start + allowance)

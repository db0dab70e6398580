"""Figure-series formatting helpers shared by the benchmark harness."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def format_series_table(x_name: str, x_values: Sequence,
                        series: Dict[str, Sequence[float]],
                        title: str = "", float_format: str = "{:.5f}") -> str:
    """Aligned text table: one row per x value, one column per series.

    Parameters
    ----------
    series:
        Mapping ``label -> values`` with ``len(values) == len(x_values)``.
    """
    labels = list(series)
    for label in labels:
        if len(series[label]) != len(x_values):
            raise ValueError(
                f"series {label!r} has {len(series[label])} values for "
                f"{len(x_values)} x points"
            )
    widths = [max(len(x_name), 12)] + [max(len(label), 10) for label in labels]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(
        name.rjust(width) for name, width in zip([x_name] + labels, widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for i, x in enumerate(x_values):
        cells = [str(x).rjust(widths[0])]
        for j, label in enumerate(labels):
            cells.append(float_format.format(series[label][i]).rjust(widths[j + 1]))
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def shape_summary(x_values: Sequence, values: Sequence[float]) -> str:
    """One-line trend summary: first -> last value plus the ratio."""
    first, last = float(values[0]), float(values[-1])
    ratio = last / first if first not in (0.0,) else float("inf")
    direction = "down" if last < first else "up"
    return (f"{x_values[0]} -> {x_values[-1]}: {first:.5f} -> {last:.5f} "
            f"({direction}, x{ratio:.3f})")


def markdown_table(headers: Iterable[str], rows: Iterable[Sequence]) -> str:
    """Small GitHub-markdown table renderer."""
    headers = list(headers)
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def format_panel_block(title: str, x_name: str, x_values: Sequence,
                       series: Dict[object, Sequence[float]]) -> str:
    """One bench results-file block: the panel table plus trend lines.

    This is the exact text the figure benches append to
    ``benchmarks/results/*.txt`` (and print); the CLI uses the same
    function, so ``python -m repro run <bench>`` reproduces a committed
    table byte for byte.  Series labels are stringified, as the bench
    tables always did.
    """
    labelled = {f"{k}": v for k, v in series.items()}
    table = format_series_table(x_name, list(x_values), labelled, title=title)
    trends = "\n".join(
        f"  series {label}: {shape_summary(list(x_values), list(values))}"
        for label, values in labelled.items()
    )
    return f"\n{table}\n{trends}\n"

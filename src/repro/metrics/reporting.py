"""Plain-text reporting: experiment tables and paper-shape comparisons.

The benchmarks print, for every figure panel, a table with one row per
parameter value (dimension, peer count or ``K``) and the measured series next
to the paper's series.  Absolute values are not expected to match -- the
substrate differs -- but the *shape* should: monotonic trends, orderings
between configurations, rough growth rates.  :func:`compare_series` quantifies
that with rank correlation and per-point ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "format_table",
    "summarize_distribution",
    "SeriesComparison",
    "compare_series",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    float_format: str = "{:.2f}",
) -> str:
    """Render rows as a fixed-width plain-text table.

    Floats are formatted with ``float_format``; everything else with
    ``str``.  Columns are right-aligned except the first, which is
    left-aligned (it usually holds the parameter name).
    """
    def render(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered_rows = [[render(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have one value per header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            if index == 0:
                parts.append(cell.ljust(widths[index]))
            else:
                parts.append(cell.rjust(widths[index]))
        return "  ".join(parts)

    lines = [format_row(headers), format_row(["-" * width for width in widths])]
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)


def summarize_distribution(values: Iterable[float]) -> Dict[str, float]:
    """Min / max / mean / median summary of a sequence of numbers."""
    data = sorted(float(v) for v in values)
    if not data:
        return {"count": 0, "min": 0.0, "max": 0.0, "mean": 0.0, "median": 0.0}
    count = len(data)
    middle = count // 2
    median = data[middle] if count % 2 == 1 else (data[middle - 1] + data[middle]) / 2.0
    return {
        "count": count,
        "min": data[0],
        "max": data[-1],
        "mean": sum(data) / count,
        "median": median,
    }


@dataclass(frozen=True)
class SeriesComparison:
    """Shape comparison between a measured series and the paper's series.

    Attributes
    ----------
    labels:
        The x-axis values (dimensions, peer counts, values of ``K``).
    measured, reference:
        The two y-series being compared.
    ratios:
        Per-point ``measured / reference`` (``nan`` where the reference is 0).
    rank_correlation:
        Spearman rank correlation between the two series; close to ``+1``
        means the measured series rises and falls where the paper's does.
    same_direction:
        ``True`` when both series agree on whether each consecutive step goes
        up, down, or stays level for the majority of steps.
    """

    labels: Tuple[object, ...]
    measured: Tuple[float, ...]
    reference: Tuple[float, ...]
    ratios: Tuple[float, ...]
    rank_correlation: float
    same_direction: bool

    def as_rows(self) -> List[List[object]]:
        """Rows for :func:`format_table`: label, measured, reference, ratio."""
        return [
            [label, measured, reference, ratio]
            for label, measured, reference, ratio in zip(
                self.labels, self.measured, self.reference, self.ratios
            )
        ]


def compare_series(
    labels: Sequence[object],
    measured: Sequence[float],
    reference: Sequence[float],
) -> SeriesComparison:
    """Compare a measured series against the paper's reported series."""
    if not (len(labels) == len(measured) == len(reference)):
        raise ValueError("labels, measured and reference must have the same length")
    measured_values = tuple(float(v) for v in measured)
    reference_values = tuple(float(v) for v in reference)
    ratios = tuple(
        (m / r) if r != 0 else math.nan for m, r in zip(measured_values, reference_values)
    )
    correlation = _spearman(measured_values, reference_values)
    same_direction = _direction_agreement(measured_values, reference_values)
    return SeriesComparison(
        labels=tuple(labels),
        measured=measured_values,
        reference=reference_values,
        ratios=ratios,
        rank_correlation=correlation,
        same_direction=same_direction,
    )


def _ranks(values: Sequence[float]) -> List[float]:
    order = sorted(range(len(values)), key=lambda index: values[index])
    ranks = [0.0] * len(values)
    index = 0
    while index < len(order):
        tie_end = index
        while (
            tie_end + 1 < len(order)
            and values[order[tie_end + 1]] == values[order[index]]
        ):
            tie_end += 1
        average_rank = (index + tie_end) / 2.0
        for position in range(index, tie_end + 1):
            ranks[order[position]] = average_rank
        index = tie_end + 1
    return ranks


def _spearman(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) < 2:
        return 1.0
    ranks_a = _ranks(a)
    ranks_b = _ranks(b)
    mean_a = sum(ranks_a) / len(ranks_a)
    mean_b = sum(ranks_b) / len(ranks_b)
    covariance = sum((x - mean_a) * (y - mean_b) for x, y in zip(ranks_a, ranks_b))
    variance_a = sum((x - mean_a) ** 2 for x in ranks_a)
    variance_b = sum((y - mean_b) ** 2 for y in ranks_b)
    if variance_a == 0 or variance_b == 0:
        return 1.0 if variance_a == variance_b else 0.0
    return covariance / math.sqrt(variance_a * variance_b)


def _direction_agreement(a: Sequence[float], b: Sequence[float]) -> bool:
    if len(a) < 2:
        return True
    agreements = 0
    steps = 0
    for index in range(1, len(a)):
        step_a = a[index] - a[index - 1]
        step_b = b[index] - b[index - 1]
        steps += 1
        if (step_a > 0 and step_b > 0) or (step_a < 0 and step_b < 0) or (
            step_a == 0 and step_b == 0
        ):
            agreements += 1
    return agreements * 2 >= steps

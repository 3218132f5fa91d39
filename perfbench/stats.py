"""Summary statistics shared by the workloads and the per-layer report."""

from __future__ import annotations

import statistics

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with 10 beyond it.

    With ``n`` samples that is the ``n - 10``-th smallest value, the
    ``100 (n - 10) / n`` percentile; samples of a failed request carry the
    client timeout, so they miss every limit.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0, 0
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return float(ordered[index]), 100.0 * (index + 1) / len(ordered), len(ordered)

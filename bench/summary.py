"""Order statistics and the regression classifier behind compare mode."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0..100), interpolating linearly between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError("p must lie in 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def classify(base: Sequence[float], new: Sequence[float], bound: float, better: str) -> tuple[str, float]:
    """Verdict on one (workload, metric) and the relative change of the median.

    The change is signed so that positive means worse. ``regressed``: the
    median got worse by more than ``bound``. ``improved``: every new run reads
    better than every base run and the medians differ by more than the base
    spread. ``unresolved``: neither, and the spread of either side is wider
    than ``bound``, so no-change cannot be told from noise. Otherwise
    ``unchanged``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    base_median = statistics.median(base)
    sign = 1 if better == "lower" else -1
    change = sign * (statistics.median(new) - base_median) / abs(base_median)
    if change > bound:
        return "regressed", change
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if all_better and -change > relative_spread(base):
        return "improved", change
    if max(relative_spread(base), relative_spread(new)) > bound and not all_better:
        return "unresolved", change
    return "unchanged", change

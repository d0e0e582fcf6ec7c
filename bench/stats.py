"""Order statistics shared by the runner and the compare report."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def median(values):
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values) -> tuple[float, float, int]:
    """Latency at the highest percentile that still has at least
    TAIL_BEYOND samples above it.

    Returns (value, percentile, samples). With m samples sorted ascending,
    the reported value is the one at rank m - TAIL_BEYOND (1-based), so
    exactly TAIL_BEYOND samples lie beyond it, and its percentile is
    100*(m-TAIL_BEYOND)/m.  With TAIL_BEYOND samples or fewer there is no
    such percentile, and the minimum is reported at percentile 0 rather
    than inventing one.
    """
    ordered = sorted(values)
    m = len(ordered)
    if m == 0:
        raise ValueError("tail of an empty sample")
    rank = m - TAIL_BEYOND
    if rank < 1:
        return ordered[0], 0.0, m
    return ordered[rank - 1], 100.0 * rank / m, m


def verdict(parent, change, better: str, bound: float) -> str:
    """Compare runs of the parent and of the change, pair k being the k-th
    run of each (alternate which side runs first).

    improved:     at least 10 pairs, the change wins at least 9 in 10 of them
                  (ties count for neither side), and the medians differ in
                  its favour by more than the parent's interquartile distance;
    unresolved:   the parent's own spread (IQR / median) is wider than the
                  bound, unless every change run beats every parent run;
    worse:        the change's median is worse than the parent's by more
                  than `bound`, as a share of the parent's median;
    within bound: otherwise.
    """
    sign = 1 if better == "lower" else -1
    p_med, c_med = median(parent), median(change)
    q1, _, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (p_med - c_med) > q3 - q1:
        return "improved"
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if relative_spread(parent) > bound and not every_run_better:
        return "unresolved"
    gap = sign * (c_med - p_med)
    if gap > 0 and (p_med == 0 or gap / abs(p_med) > bound):
        return "worse"
    return "within bound"

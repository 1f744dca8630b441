"""Order statistics and failure counting used by the benchmark's report."""

import math

# Percentiles the tail is chosen from, low to high.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile is reported only when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def nearest_rank(samples, percentile):
    """The nearest-rank percentile: the smallest sample with at least
    `percentile` percent of the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(percentile, len(ordered)) - 1]


def _rank(percentile, n):
    # The small slack keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(percentile * n / 100.0 - 1e-9))


def tail(samples):
    """(percentile, value) for the highest ladder percentile that leaves at
    least TAIL_MIN_BEYOND samples beyond its rank, or (None, None) when even
    the median leaves fewer."""
    n = len(samples)
    best = (None, None)
    for p in TAIL_LADDER:
        if n - _rank(p, n) < TAIL_MIN_BEYOND:
            break
        best = (p, nearest_rank(samples, p))
    return best


def error_rate(failed, attempted):
    """Failed tasks over attempted tasks; a run that attempted nothing has
    no rate."""
    if attempted < 1:
        raise ValueError("no task was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted

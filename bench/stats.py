"""Summary statistics shared by the harness and its tests."""

from __future__ import annotations

TAIL_MIN_BEYOND = 10
TAIL_MAX_PERCENTILE = 99.0


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile).  The value is the order statistic that has
    exactly TAIL_MIN_BEYOND samples above it; the percentile is capped at
    p99 so that runs with tens of thousands of sub-millisecond ops report a
    latency of the op mix rather than of the host's scheduler hiccups.
    """
    n = len(samples)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(
            f"need more than {TAIL_MIN_BEYOND} samples for a tail, got {n}"
        )
    ordered = sorted(samples)
    percentile = min(100.0 * (n - TAIL_MIN_BEYOND) / n, TAIL_MAX_PERCENTILE)
    # rank r (1-based) has n - r samples beyond it; take the largest rank
    # whose percentile r/n does not exceed the target
    rank = int(percentile * n / 100.0 + 1e-9)
    return ordered[rank - 1], 100.0 * rank / n

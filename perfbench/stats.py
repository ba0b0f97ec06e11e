"""Order statistics over raw samples.

Percentiles are taken from the raw per-call samples the benchmark
records, never from histogram buckets, so two runs of the same code read
the same value to within scheduling noise.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 50.0)
"""Percentiles considered for the reported tail, highest first."""


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``count``
    samples (tolerant of float error such as 99.9 / 100 * 10000)."""
    return max(math.ceil(pct * count / 100 - 1e-9), 1)


def percentile(samples: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``samples``: the smallest
    sample with at least ``pct`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    return sorted(samples)[_rank(pct, len(samples)) - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``
    percentile."""
    return count - _rank(pct, count)


def supported_tail(count: int, min_beyond: int = 10) -> Optional[float]:
    """The highest of :data:`TAIL_CANDIDATES` with at least
    ``min_beyond`` samples above it, or ``None`` when the sample is too
    small for any of them."""
    for pct in TAIL_CANDIDATES:
        if beyond(count, pct) >= min_beyond:
            return pct
    return None


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def late_over_early(runs: Sequence[Sequence[float]]) -> float:
    """Median latency of the last tenth of each run's samples (in
    commit order) over the median of the first tenth, pooled over the
    runs: 1.0 when per-commit cost stays flat as the history grows.
    Medians, not means, so that one stalled fsync does not decide it."""
    early: List[float] = []
    late: List[float] = []
    for latencies in runs:
        tenth = len(latencies) // 10
        if tenth < 1:
            raise ValueError(
                f"need at least 10 samples for late/early, got "
                f"{len(latencies)}"
            )
        early.extend(latencies[:tenth])
        late.extend(latencies[-tenth:])
    return median(late) / median(early)

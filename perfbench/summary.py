"""Order statistics for benchmark samples.

A timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it, with the sample count; below
twenty samples no tail percentile exists and none is reported.
"""

from __future__ import annotations

import statistics

#: Candidate tail percentiles in per-mille, lowest first (p50 … p99.9).
#: Integers keep the "samples beyond" test exact.
TAIL_LADDER_PERMILLE = (500, 750, 900, 950, 990, 999)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """The *pct*-th percentile (0-100), interpolating between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` of *n* samples
    beyond it, or None when *n* is too small for any."""
    best = None
    for permille in TAIL_LADDER_PERMILLE:
        if n * (1000 - permille) >= MIN_BEYOND * 1000:
            best = permille / 10.0
    return best


def summarize(values) -> dict:
    """``{"median", "tail_pct", "tail", "n"}`` of a list of samples."""
    values = list(values)
    if not values:
        return {"median": None, "tail_pct": None, "tail": None, "n": 0}
    pct = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "tail_pct": pct,
        "tail": None if pct is None else percentile(values, pct),
        "n": len(values),
    }

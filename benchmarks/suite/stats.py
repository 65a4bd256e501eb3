"""Order statistics the report uses.

A timing is printed as its median plus the highest percentile that still
has at least ten samples beyond it, with the sample count — a p99 read
off 50 samples is one sample's luck, so the picker refuses it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.slowdown import percentile

#: Percentiles the picker may report, highest first.
CANDIDATE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_SAMPLES_BEYOND = 10


def highest_supported_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with ≥ 10 of ``n`` samples beyond it."""
    for q in CANDIDATE_PERCENTILES:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary.
        if round(n * (100.0 - q), 6) >= MIN_SAMPLES_BEYOND * 100:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, the highest supported percentile, and the sample count."""
    out: Dict[str, object] = {"n": len(values)}
    if not values:
        return out
    out["median"] = statistics.median(values)
    q = highest_supported_percentile(len(values))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out


def relative_gap(first: float, second: float) -> float:
    """``|second - first|`` as a share of ``first`` (0 when both are 0)."""
    if first == second:
        return 0.0
    if first == 0.0:
        return math.inf
    return abs(second - first) / abs(first)


def format_summary(summary: Dict[str, object], unit: str) -> str:
    """``median 9.51 ms, p90 14.2 ms, n=300``."""
    if not summary.get("n"):
        return "n=0"
    parts = [f"median {summary['median']:.6g} {unit}"]
    if "tail" in summary:
        parts.append(f"p{summary['tail_q']:g} {summary['tail']:.6g} {unit}")
    parts.append(f"n={summary['n']}")
    return ", ".join(parts)


def pooled(samples: List[Sequence[float]]) -> Tuple[float, ...]:
    """All samples of several repetitions as one tuple."""
    return tuple(value for rep in samples for value in rep)

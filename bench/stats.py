"""The two summaries the harness reports: nearest-rank percentiles of
pooled samples, and medians across repeated passes."""

from __future__ import annotations

import math
from statistics import median
from typing import Sequence

__all__ = ["median", "percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q!r}")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]

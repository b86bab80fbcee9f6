"""Percentiles and the tail-percentile rule."""

from __future__ import annotations

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
SAMPLES_BEYOND = 10


def tail_percentile(samples: int) -> float | None:
    """The highest percentile in :data:`TAIL_LADDER` with at least
    :data:`SAMPLES_BEYOND` of ``samples`` beyond it (None if none has)."""
    best = None
    for pct in TAIL_LADDER:
        if samples * (100.0 - pct) / 100.0 >= SAMPLES_BEYOND - 1e-6:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (0.0 for no samples)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, pct))

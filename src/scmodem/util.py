"""Small shared helpers: binomial confidence intervals."""

from __future__ import annotations

import math


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a Bernoulli proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = p + z2 / (2.0 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return ((center - half) / denom, (center + half) / denom)

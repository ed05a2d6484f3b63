"""Percentiles for the benchmark runner."""

from __future__ import annotations

import math

#: A percentile is reported only when at least this many samples lie
#: beyond it; p99 therefore needs 1000 samples.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples to support the requested percentile."""


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses (``InsufficientSamples``) when fewer than :data:`MIN_BEYOND`
    samples lie strictly beyond the chosen rank, so a tail percentile is
    never read off a handful of points.
    """
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} "
            f"beyond it; at least {MIN_BEYOND} are needed"
        )
    return ordered[rank - 1]


def tail(values, q: float = 99.0) -> "tuple[float, bool]":
    """``(p_q, True)`` when supported, else ``(max, False)``.

    For per-layer spans that run only a few times per run (checkpoints,
    relaxation-space builds) the maximum is the honest tail figure.
    """
    try:
        return percentile(values, q), True
    except InsufficientSamples:
        return max(values), False


"""Descriptive statistics (mean, std, standard error, CIs).

Used to aggregate repeated simulated deployments the way the paper averages
over 10 runs and draws standard-error bars (Figure 11, Figure 13).
``summarize`` imports scipy when called, so importing this module does not
load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Summary statistics of one sample."""

    n: int
    mean: float
    std: float
    stderr: float
    ci_low: float
    ci_high: float
    confidence: float


def standard_error(values: Iterable[float]) -> float:
    """Standard error of the mean (ddof=1); 0.0 for samples of size < 2."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        return 0.0
    return float(arr.std(ddof=1) / np.sqrt(arr.size))


def summarize(values: Iterable[float], confidence: float = 0.95) -> Summary:
    """Summarize a sample with a Student-t confidence interval for the mean."""
    from scipy import stats as sps

    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(arr.mean())
    if arr.size == 1:
        return Summary(1, mean, 0.0, 0.0, mean, mean, confidence)
    std = float(arr.std(ddof=1))
    se = std / float(np.sqrt(arr.size))
    half = float(sps.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1)) * se
    return Summary(
        n=int(arr.size),
        mean=mean,
        std=std,
        stderr=se,
        ci_low=mean - half,
        ci_high=mean + half,
        confidence=confidence,
    )

"""Input-validation helpers shared across the library.

All public constructors validate eagerly and raise ``ValueError`` with the
offending name and value, so misuse fails at the boundary rather than deep
inside an optimizer.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np


def check_fraction(name: str, value: float, allow_zero: bool = True) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` and return it as ``float``."""
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{name} must not be NaN")
    low_ok = value >= 0.0 if allow_zero else value > 0.0
    if not (low_ok and value <= 1.0):
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValueError(f"{name} must lie in {bound}, got {value}")
    return value


def check_positive_int(name: str, value: int) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number >= 0."""
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def check_probability_vector(name: str, values: Iterable[float]) -> np.ndarray:
    """Validate that ``values`` are non-negative and sum to 1 (±1e-9)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if (arr < 0).any():
        raise ValueError(f"{name} must be non-negative")
    total = arr.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError(f"{name} must sum to 1, got {total}")
    return arr

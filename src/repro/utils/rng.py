"""Seeded random-number helpers.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  These helpers normalize that contract so
experiments are reproducible bit-for-bit from a single scenario seed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

RngLike = "int | np.random.Generator | None"


def ensure_rng(seed: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a fresh nondeterministic generator; an ``int`` yields a
    deterministic one; an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be int, Generator or None, got {type(seed)!r}")


def derive_rng(rng: np.random.Generator, *labels: "str | int") -> np.random.Generator:
    """Derive an independent child generator keyed by ``labels``.

    Deriving (rather than sharing) generators keeps components statistically
    independent: drawing more samples in one component does not perturb
    another component's stream.
    """
    import zlib

    material = [
        zlib.crc32(str(label).encode("utf-8")) & 0xFFFFFFFF for label in labels
    ]
    seed_seq = np.random.SeedSequence([int(rng.integers(0, 2**63))] + material)
    return np.random.default_rng(seed_seq)


def spawn_rngs(seed: "int | np.random.Generator | None", count: int) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators from one seed."""
    if count < 0:
        raise ValueError("count must be non-negative")
    root = ensure_rng(seed)
    seq = np.random.SeedSequence(int(root.integers(0, 2**63)))
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def weighted_choice(
    rng: np.random.Generator, items: Sequence, weights: Iterable[float]
):
    """Pick one item with probability proportional to its weight."""
    weights = np.asarray(list(weights), dtype=float)
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    if len(items) == 0:
        raise ValueError("cannot choose from an empty sequence")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    index = rng.choice(len(items), p=weights / total)
    return items[index]

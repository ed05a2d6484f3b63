"""Unit tests for the frontier cursor of the exact ADPaR sweep.

:class:`FrontierCursor` replays the k-coverage frontier over growing
admitted prefixes; it is pinned here against :func:`block_frontier`
over each admitted subsequence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.sweepline import FrontierCursor, block_frontier


def _reference_pairs(ys, zs, k):
    return list(block_frontier(np.asarray(ys, float), np.asarray(zs, float), k))


class TestFrontierCursor:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("chunk", [1, 4, 1024])
    def test_growing_prefixes_match_reference(self, seed, chunk):
        rng = np.random.default_rng(seed)
        n = 50
        ys = np.sort(rng.random(n))
        zs = rng.random(n)
        k = int(rng.integers(1, 6))
        cursor = FrontierCursor(ys, zs, k, chunk=chunk)
        admission = rng.permutation(n)  # positions in admission order
        admitted: list[int] = []
        cuts = sorted(rng.choice(np.arange(1, n + 1), size=5, replace=False))
        start = 0
        for cut in cuts:
            new = np.sort(admission[start:cut])
            start = cut
            admitted.extend(new.tolist())
            got_y, got_z = cursor.frontier(new)
            sub = np.sort(np.asarray(admitted))
            expected = (
                _reference_pairs(ys[sub], zs[sub], k) if sub.size >= k else []
            )
            assert list(zip(got_y, got_z)) == expected

    def test_validates_k_and_chunk(self):
        with pytest.raises(ValueError, match="k"):
            FrontierCursor(np.array([0.1]), np.array([0.2]), 0)
        with pytest.raises(ValueError, match="chunk"):
            FrontierCursor(np.array([0.1]), np.array([0.2]), 1, chunk=0)


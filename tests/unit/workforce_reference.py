"""The per-parameter Eq. 4 rule that ``WorkforceComputer.rows`` replaced.

``rows`` inverts the three parameters as one ``(3, m, n)`` pass over
tables built once per ensemble.  The rule below is the one it replaced:
one ``(m, n)`` grid per parameter, each built from scratch, then the
planes combined.  It is kept as a reference in one place:
``tests/unit/test_workforce.py`` checks ``rows`` against it bitwise, and
``benchmarks/bench_components.py`` (the ``rows_10k`` pin) and
``benchmarks/bench_streaming.py`` (the cold side of the memoized-resubmit
pin) time it.  Bitwise agreement includes signed zeros: ``np.maximum``
returns its second argument on ties, so the order of every maximum is
part of the rule.
"""

from __future__ import annotations

import math

import numpy as np


def threshold_grid_oracle(alpha, beta, targets, lower_bound):
    """One parameter's ``(m, n)`` Eq. 4 inversion, built from scratch."""
    a = np.asarray(alpha, dtype=float)[None, :]
    b = np.asarray(beta, dtype=float)[None, :]
    t = np.asarray(targets, dtype=float)[:, None]
    constant = a == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        solved = (t - b) / np.where(constant, 1.0, a)
    grows_toward = (a > 0) if lower_bound else (a < 0)
    out = np.where(
        grows_toward,
        np.maximum(solved, 0.0),
        np.where(solved >= 0.0, solved, math.inf),
    )
    const_ok = (b >= t - 1e-9) if lower_bound else (b <= t + 1e-9)
    return np.where(constant, np.where(const_ok, 0.0, math.inf), out)


def three_grid_rows_oracle(ensemble, params_list, mode):
    """``rows`` as three separate grids, then the paper or strict rule."""
    alpha, beta = ensemble.alpha, ensemble.beta
    quality = np.array([p.quality for p in params_list], dtype=float)
    cost = np.array([p.cost for p in params_list], dtype=float)
    latency = np.array([p.latency for p in params_list], dtype=float)
    w_q = threshold_grid_oracle(alpha[:, 0], beta[:, 0], quality, True)
    w_c = threshold_grid_oracle(alpha[:, 1], beta[:, 1], cost, False)
    w_l = threshold_grid_oracle(alpha[:, 2], beta[:, 2], latency, False)
    if mode == "paper":
        return np.maximum(np.maximum(w_q, w_c), w_l)
    requirement = np.maximum(w_q, w_l)
    ac = alpha[:, 1][None, :]
    bc = beta[:, 1][None, :]
    cost_col = cost[:, None]
    increasing = ac > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = np.where(
            increasing, (cost_col - bc) / np.where(increasing, ac, 1.0), math.inf
        )
    requirement = np.where(
        increasing & (requirement > cap + 1e-9), math.inf, requirement
    )
    constant_over = (ac == 0) & (bc > cost_col + 1e-9)
    requirement = np.where(constant_over, math.inf, requirement)
    decreasing = ac < 0
    return np.where(decreasing, np.maximum(requirement, w_c), requirement)

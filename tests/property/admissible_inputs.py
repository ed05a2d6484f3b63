"""Hypothesis inputs that put batch ADPaR on both sides of its certificate.

The exact batch backends answer a request without a sweep when at least
``k`` strategies already satisfy it (zero relaxation in all three
dimensions).  These batches mix such requests with ones just outside
the certificate, so the equivalence pins cover its boundary:

* repeated points, so several zero-norm rows tie and the index
  tie-break decides which ``k`` are kept;
* *corner* requests — the loosest thresholds a drawn subset of points
  satisfies — which admit that whole subset with zero relaxation;
* *tiny* requests — a corner whose cost sits one ulp below the subset's
  largest cost, so those points need a cost relaxation in (0, 1e-12]
  while the subset's cheaper points (if any) need none;
* *tiny-all* requests — one ulp below the smallest cost of all points,
  so no row has a zero cost relaxation;
* random requests, and ``k`` drawn up to ``n`` with ``k = n`` often.

Every batch opens with a corner request at ``k`` = its subset size
(certified) and a tiny-all request (uncertified unless some point costs
exactly 0), so each one mixes both sides.  ``adpar_batches`` draws each
batch from these or from ``random_batches``.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.core.params import TriParams

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
params_strategy = st.builds(TriParams, quality=unit, cost=unit, latency=unit)


def _corner(points, cost=None) -> TriParams:
    """The loosest request every point in ``points`` satisfies exactly."""
    return TriParams(
        quality=min(p.quality for p in points),
        cost=max(p.cost for p in points) if cost is None else cost,
        latency=max(p.latency for p in points),
    )


def _below(value: float) -> float:
    """One ulp below ``value`` (``value`` itself at 0)."""
    return math.nextafter(value, 0.0) if value > 0.0 else value


@st.composite
def admissible_batches(draw, max_points=9, max_requests=6):
    """``(points, [(params, k), ...])`` across the certificate boundary."""
    base = draw(st.lists(params_strategy, min_size=1, max_size=max_points))
    repeats = draw(st.lists(st.sampled_from(base), max_size=3))
    points = draw(st.permutations(base + repeats))
    n = len(points)

    def subset():
        return [points[i] for i in draw(st.sets(st.integers(0, n - 1), min_size=1))]

    def k_up_to_n():
        return draw(st.one_of(st.just(n), st.integers(min_value=1, max_value=n)))

    anchor = subset()
    requests = [
        (_corner(anchor), len(anchor)),
        (_corner(points, _below(min(p.cost for p in points))), k_up_to_n()),
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=max_requests - 2))):
        kind = draw(st.sampled_from(["random", "corner", "tiny", "tiny-all"]))
        if kind == "random":
            params = draw(params_strategy)
        elif kind == "corner":
            params = _corner(subset())
        elif kind == "tiny":
            chosen = subset()
            params = _corner(chosen, _below(max(p.cost for p in chosen)))
        else:
            params = _corner(points, _below(min(p.cost for p in points)))
        requests.append((params, k_up_to_n()))
    order = draw(st.permutations(range(len(requests))))
    return points, [requests[i] for i in order]


@st.composite
def random_batches(draw, max_points=9, max_requests=6):
    """``(points, [(params, k), ...])`` with every ``k`` feasible."""
    points = draw(st.lists(params_strategy, min_size=1, max_size=max_points))
    requests = draw(
        st.lists(
            st.tuples(
                params_strategy,
                st.integers(min_value=1, max_value=len(points)),
            ),
            min_size=1,
            max_size=max_requests,
        )
    )
    return points, requests


#: Random requests rarely already admit k strategies; the admissible-heavy
#: half pins the batch path's sweep-free certificate at its boundary.
adpar_batches = st.one_of(random_batches(), admissible_batches())

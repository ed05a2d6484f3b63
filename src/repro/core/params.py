"""The 3-parameter deployment space: quality, cost, latency.

Public convention (the paper's): all three are normalized to ``[0, 1]``;
``quality`` is a *lower* bound for requests, ``cost`` and ``latency`` are
*upper* bounds.  The geometry layer uses a unified smaller-is-better space
with quality inverted (§4.1); :meth:`TriParams.to_min_point` /
:meth:`TriParams.from_min_point` convert between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.point import Point3
from repro.utils.validation import check_fraction


@dataclass(frozen=True, slots=True)
class TriParams:
    """A (quality, cost, latency) triple in ``[0, 1]³``.

    Used both for deployment-request thresholds and for (estimated)
    strategy parameters — Table 1 lists both kinds side by side.
    """

    quality: float
    cost: float
    latency: float

    def __post_init__(self):
        object.__setattr__(self, "quality", check_fraction("quality", self.quality))
        object.__setattr__(self, "cost", check_fraction("cost", self.cost))
        object.__setattr__(self, "latency", check_fraction("latency", self.latency))

    # ------------------------------------------------------------ satisfaction
    def satisfied_by(self, strategy: "TriParams", tolerance: float = 1e-9) -> bool:
        """True iff a strategy with parameters ``strategy`` satisfies *this*
        request: ``s.quality >= d.quality``, ``s.cost <= d.cost``,
        ``s.latency <= d.latency`` (§2.1).
        """
        return (
            strategy.quality >= self.quality - tolerance
            and strategy.cost <= self.cost + tolerance
            and strategy.latency <= self.latency + tolerance
        )

    def dominates_request(self, other: "TriParams") -> bool:
        """True iff this request is *looser* than ``other`` in every parameter.

        A strategy satisfying ``other`` then also satisfies this request.
        """
        return (
            self.quality <= other.quality
            and self.cost >= other.cost
            and self.latency >= other.latency
        )

    # ---------------------------------------------------------------- geometry
    def to_min_point(self) -> Point3:
        """Map to the unified smaller-is-better space ``(C, Q', L)`` with
        ``Q' = 1 − quality`` (§4.1's inversion)."""
        return Point3(self.cost, 1.0 - self.quality, self.latency)

    @classmethod
    def from_min_point(cls, point: Point3) -> "TriParams":
        """Inverse of :meth:`to_min_point` (coordinates clipped to [0, 1])."""
        clip = lambda v: min(max(v, 0.0), 1.0)
        return cls(
            quality=clip(1.0 - point.y),
            cost=clip(point.x),
            latency=clip(point.z),
        )

    # ---------------------------------------------------------------- distance
    def distance_to(self, other: "TriParams") -> float:
        """Euclidean (ℓ2) distance — ADPaR's objective (Equation 3).

        Identical in the public and unified spaces because quality enters
        as a difference.
        """
        return math.sqrt(
            (self.quality - other.quality) ** 2
            + (self.cost - other.cost) ** 2
            + (self.latency - other.latency) ** 2
        )

    def squared_distance_to(self, other: "TriParams") -> float:
        """Squared ℓ2 distance (the exact expression in Equation 3)."""
        return (
            (self.quality - other.quality) ** 2
            + (self.cost - other.cost) ** 2
            + (self.latency - other.latency) ** 2
        )

    def as_tuple(self) -> tuple[float, float, float]:
        """``(quality, cost, latency)`` in the paper's reporting order."""
        return (self.quality, self.cost, self.latency)

    def __str__(self) -> str:
        return f"(q≥{self.quality:.3f}, c≤{self.cost:.3f}, l≤{self.latency:.3f})"

"""Finite unions of closed intervals on the extended real line.

Used to represent fixed-point sets of constraint functions and their
intersections. Isolated points are degenerate intervals with equal
endpoints. Endpoints may be ``-inf``/``+inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IntervalSet:
    """Canonical (sorted, disjoint, merged) union of closed intervals.

    ``tolerance`` records the certification tolerance when the set is a
    numerical enclosure rather than an exact result; ``0.0`` means exact.
    """

    pieces: tuple[tuple[float, float], ...] = ()
    tolerance: float = 0.0

    @staticmethod
    def from_pieces(pieces, tolerance: float = 0.0) -> "IntervalSet":
        cleaned = []
        for lo, hi in pieces:
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("NaN interval endpoint")
            if lo > hi:
                continue
            cleaned.append((float(lo), float(hi)))
        cleaned.sort()
        merged: list[list[float]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return IntervalSet(tuple((a, b) for a, b in merged), tolerance)

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def point(x: float, tolerance: float = 0.0) -> "IntervalSet":
        return IntervalSet(((float(x), float(x)),), tolerance)

    @staticmethod
    def closed(lo: float, hi: float, tolerance: float = 0.0) -> "IntervalSet":
        return IntervalSet.from_pieces([(lo, hi)], tolerance)

    @staticmethod
    def reals() -> "IntervalSet":
        return IntervalSet(((-math.inf, math.inf),))

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    @property
    def is_bounded(self) -> bool:
        return self.is_empty or (
            math.isfinite(self.pieces[0][0]) and math.isfinite(self.pieces[-1][1])
        )

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return any(lo - slack <= x <= hi + slack for lo, hi in self.pieces)

    def hull(self) -> tuple[float, float]:
        if self.is_empty:
            raise ValueError("hull of empty set")
        return self.pieces[0][0], self.pieces[-1][1]

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Tolerance-aware intersection.

        An operand's true set lies within its tolerance of its pieces (an
        exact set has tolerance 0). Padding each operand by its own
        tolerance therefore gives a superset of its true set, so the padded
        intersection contains the true one, and two enclosures of the same
        point that disagree within tolerance still meet.

        The result keeps the padded pieces and records ``ta + tb``: each
        endpoint may have moved outward by the padding of either operand,
        and the sum bounds both at once, so callers that read the tolerance
        as the set's uncertainty never understate it. The rule is sound but
        conservative, and it depends on order: each further intersection
        pads by the accumulated sum again, and an exact operand clips the
        padding added before it but cannot undo padding added after it.
        Callers wanting a tight result intersect each distinct enclosure
        once and the exact sets last, as ``analysis.consensus_zone`` does.
        """
        ta, tb = self.tolerance, other.tolerance
        out = []
        for a, b in self.pieces:
            for c, d in other.pieces:
                lo, hi = max(a - ta, c - tb), min(b + ta, d + tb)
                if lo <= hi:
                    out.append((lo, hi))
        return IntervalSet.from_pieces(out, ta + tb)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_pieces(
            list(self.pieces) + list(other.pieces),
            max(self.tolerance, other.tolerance),
        )

    def clip(self, lo: float, hi: float) -> "IntervalSet":
        return self.intersect(IntervalSet.closed(lo, hi))

    def __iter__(self):
        return iter(self.pieces)

"""Finite unions of closed intervals on the extended real line.

Used to represent fixed-point sets of constraint functions and their
intersections. Isolated points are degenerate intervals with equal
endpoints. Endpoints may be ``-inf``/``+inf``.

Every set is an outer set: it contains the true set it stands for. Exact
sets are their own outer sets; a numerical enclosure is padded once, where
it is made (``constraints._scan_fixed_points``). The intersection of outer
sets is an outer set of the intersection, so every operation here is plain
set algebra (Moore, *Interval Analysis*, 1966).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IntervalSet:
    """Canonical (sorted, disjoint, merged) union of closed intervals; an
    outer set of the set it stands for."""

    pieces: tuple[tuple[float, float], ...] = ()

    @staticmethod
    def from_pieces(pieces) -> "IntervalSet":
        """Sort and merge ``(lo, hi)`` pairs, dropping those with ``lo >
        hi``; a NaN endpoint raises ``ValueError``."""
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
        return IntervalSet(tuple((a, b) for a, b in merged))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def closed(lo: float, hi: float) -> "IntervalSet":
        return IntervalSet.from_pieces([(lo, hi)])

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
        out = []
        for a, b in self.pieces:
            for c, d in other.pieces:
                lo, hi = max(a, c), min(b, d)
                if lo <= hi:
                    out.append((lo, hi))
        return IntervalSet.from_pieces(out)

"""Consensus-zone computation, admissible-ray search, and the theorem
classifier.

The classifier runs a ledger of named conditions (connectivity, zone
emptiness, chord-slope bounds, ray existence, self-mapped box) and maps the
ledger to a verdict. The ray search tries the consensus zone's pieces as
boxes, since theorem 2 needs the identity on the box, and a grid of anchors
in each; for each it reads the ray slopes off the edges' ray-ratio ranges
in closed form. "Not found" is recorded as inconclusive, never as a
disproof. A system with a pchip edge is not searched: its sector
conditions are only sampled, and samples never certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import (
    STRICT_MARGIN,
    Mix,
    Tabulated,
    difference_quotient_bounds,
    fixed_point_set,
    ratio_range,
    sector_membership,
)
from .dynamics import System
from .errors import EmptyFixedPointSetError, UnresolvableEnclosureError
from .graph import is_strongly_connected
from .intervals import IntervalSet
from .rays import BoxRaySpec

QUOTIENT_EDGE_TOL = 1e-12


def consensus_zone(system: System) -> IntervalSet:
    """Intersection of the fixed-point sets over all edges.

    Each set is exact or an outer set padded once by ``BISECTION_FP_TOL``,
    so the plain intersection is an outer set of the zone, and each
    distinct function enters once. The exact sets (the functions with a
    piecewise-linear form) go first: if they already miss each other the
    zone is empty whatever the enclosures are, so it is returned before an
    enclosure that cannot be computed raises.
    """
    zone = IntervalSet.reals()
    for _, fn in sorted(system.distinct, key=lambda item: item[1].pwl() is None):
        zone = zone.intersect(fixed_point_set(fn))
        if zone.is_empty:
            return zone
    return zone


# ---------------------------------------------------------------------------
# ray search

ANCHOR_COUNT = 33


def _contains_interval(s: IntervalSet, lo: float, hi: float) -> bool:
    return any(a - 1e-12 <= lo and hi <= b + 1e-12 for a, b in s.pieces)


def _candidate_boxes(phi: IntervalSet) -> list[tuple[float, float]]:
    """The boxes the ray search tries: the zone's finite pieces in order,
    after the degenerate box ``[0, 0]`` when the zone is unbounded and
    contains 0. Theorem 2 asks for the identity on the box, so the box lies
    in the zone, and for a fixed anchor a whole piece is the best box."""
    pieces = [p for p in phi.pieces if math.isfinite(p[0]) and math.isfinite(p[1])]
    if phi.is_bounded or not _contains_interval(phi, 0.0, 0.0):
        return pieces
    return [(0.0, 0.0)] + [p for p in pieces if p != (0.0, 0.0)]


def _spec_admits_all(system: System, spec: BoxRaySpec, phi: IntervalSet) -> bool:
    """Theorem 2's conditions: slope product at most one, identity on the
    box (the box sits in the zone), and every edge in both outer sectors."""
    if spec.slope_product > 1.0 + 1e-9:
        return False
    if not _contains_interval(phi, spec.box_lo, spec.box_hi):
        return False
    for _, fn in system.distinct:
        report = sector_membership(fn, spec)
        if not (report.lower.passed and report.upper.passed):
            return False
    return True


def _has_pchip(system: System) -> bool:
    """Whether a distinct function of ``system`` is a pchip ``Tabulated``
    or a ``Mix`` with one: samples may refute its sectors, never certify."""
    stack = [fn for _, fn in system.distinct]
    while stack:
        fn = stack.pop()
        if isinstance(fn, Mix):
            stack += [fn.first, fn.second]
        elif isinstance(fn, Tabulated) and fn.interpolation == "pchip":
            return True
    return False


def _unit_product_rays(
    system: System, box_lo: float, box_hi: float, anchor: float
) -> BoxRaySpec | None:
    """Slopes ``k1 = -(p+t)``, ``k2 = -(q+t)`` clearing every edge's ray ratio,
    with caps ``p``, ``q = max(0, -inf r)`` per side and ``t > 0`` solving
    ``(p+t)(q+t) = 1``. ``None`` when no negative pair with ``k1*k2 <= 1``
    clears them (some ``r`` exceeds 1, or ``p*q >= 1``)."""
    caps = {"lower": 0.0, "upper": 0.0}
    for _, fn in system.distinct:
        for side in caps:
            r = ratio_range(fn, box_lo, box_hi, anchor, side)
            if r.sup > 1.0 + STRICT_MARGIN:
                return None
            caps[side] = max(caps[side], -r.inf)
    p, q = caps["lower"], caps["upper"]
    if not p * q < 1.0:  # an infinite cap times a zero one is nan: infeasible too
        return None
    t = 0.5 * (math.sqrt((p - q) ** 2 + 4.0) - (p + q))
    return BoxRaySpec(box_lo, box_hi, anchor, -(p + t), -(q + t))


def find_admissible_rays(
    system: System, hints: tuple[BoxRaySpec, ...] = ()
) -> BoxRaySpec | None:
    """Search for a box-and-ray spec admitting every edge under theorem 2:
    slope product at most one and identity on the box. Hint specs are
    verified first. Then the boxes are the zone's pieces (the box must lie
    in the zone, see :func:`_candidate_boxes`) with ``ANCHOR_COUNT``
    anchors each, and for each the slopes come in closed form (product
    one), re-verified by :func:`_spec_admits_all`. Returns ``None`` when no
    candidate admits rays; absence is not a proof. With a pchip edge
    (:func:`_has_pchip`) it returns ``None`` before computing anything.
    """
    if _has_pchip(system):
        return None
    phi = consensus_zone(system)
    for hint in hints:
        if _spec_admits_all(system, hint, phi):
            return hint
    for box_lo, box_hi in _candidate_boxes(phi):
        n = 1 if box_hi == box_lo else ANCHOR_COUNT
        for anchor in np.linspace(box_lo, box_hi, n):
            spec = _unit_product_rays(system, box_lo, box_hi, float(anchor))
            if spec is not None and _spec_admits_all(system, spec, phi):
                return spec
    return None


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ConditionResult:
    status: str  # "pass" | "fail" | "inconclusive"
    witness: object = None
    note: str = ""


@dataclass(frozen=True)
class TheoremVerdict:
    classification: str  # Consensus | UniqueEquilibrium | EquilibriumExists | Inconclusive
    conditions: dict[str, ConditionResult]
    zone: IntervalSet | None  # None: an enclosure could not be computed
    rays: BoxRaySpec | None = None

    def to_dict(self) -> dict:
        def _coerce(v):
            if isinstance(v, IntervalSet):
                return _coerce(v.pieces)
            if isinstance(v, BoxRaySpec):
                return {
                    "box_lo": v.box_lo,
                    "box_hi": v.box_hi,
                    "anchor": v.anchor,
                    "k1": v.k1,
                    "k2": v.k2,
                }
            if isinstance(v, (tuple, list)):
                return [_coerce(x) for x in v]
            if isinstance(v, (float, np.floating)):
                # an unbounded end is null: strict JSON has no infinity
                return None if math.isinf(v) else float(v)
            return v

        return {
            "classification": self.classification,
            "conditions": {
                name: {
                    "status": c.status,
                    "witness": _coerce(c.witness),
                    "note": c.note,
                }
                for name, c in self.conditions.items()
            },
            "consensus_zone": _coerce(self.zone),
            "rays": _coerce(self.rays),
        }


def _quotient_condition(system: System, strict: bool) -> ConditionResult:
    """Chord-slope ledger entry.

    Non-strict form: every edge quotient in (-1, 1], everywhere. Strict
    form: quotient in (-1, 1) for chords anchored off the edge's fixed-point
    set (vacuous for edges fixed everywhere). The witness is the hull of
    the bounds of every function that constrains the condition, and
    ``None`` when none does.
    """
    worst = (math.inf, -math.inf)
    for edge, fn in system.distinct:
        qb = difference_quotient_bounds(fn, IntervalSet.reals(), exclude_fixed=strict)
        if qb is None:
            continue
        lo_ok = qb.lo > -1.0 + QUOTIENT_EDGE_TOL or (
            qb.lo >= -1.0 - QUOTIENT_EDGE_TOL and not qb.lo_attained
        )
        if strict:
            hi_ok = qb.hi < 1.0 - QUOTIENT_EDGE_TOL or (
                qb.hi <= 1.0 + QUOTIENT_EDGE_TOL and not qb.hi_attained
            )
        else:
            hi_ok = qb.hi <= 1.0 + QUOTIENT_EDGE_TOL
        if not (lo_ok and hi_ok):
            return ConditionResult(
                "fail",
                witness=(qb.lo, qb.hi),
                note=f"edge {edge} quotient bounds outside the admissible range",
            )
        worst = (min(worst[0], qb.lo), max(worst[1], qb.hi))
    if worst[0] > worst[1]:  # no function constrained it: the hull is empty
        return ConditionResult(
            "pass", note="vacuous: no edge function constrains the chord slopes"
        )
    return ConditionResult("pass", witness=worst)


def classify_system(
    system: System, hints: tuple[BoxRaySpec, ...] = ()
) -> TheoremVerdict:
    """Classify a system by running the consensus/equilibrium condition
    ledger and mapping it to a verdict."""
    from .equilibrium import invariant_box

    conditions: dict[str, ConditionResult] = {}

    sc = is_strongly_connected(system.graph)
    conditions["strongly_connected"] = ConditionResult("pass" if sc else "fail")

    try:
        zone = consensus_zone(system)
        conditions["consensus_zone_nonempty"] = ConditionResult(
            "pass" if not zone.is_empty else "fail", witness=zone
        )
    except UnresolvableEnclosureError as err:
        zone = None
        conditions["consensus_zone_nonempty"] = ConditionResult(
            "inconclusive", note=str(err)
        )

    conditions["quotient_in_unit_sector"] = _quotient_condition(system, strict=False)
    conditions["strict_quotient_off_fixed_set"] = _quotient_condition(
        system, strict=True
    )

    rays = None
    if zone is None:
        note = "ray search not run: the zone is unresolved"
    elif not sc or zone.is_empty:
        note = "ray search only runs for a non-empty zone"
    elif not hints and conditions["quotient_in_unit_sector"].status == "pass":
        note = "not searched; chord-slope bounds already certify consensus"
    elif _has_pchip(system):
        note = (
            "not searched: a pchip edge's sector conditions are only sampled, "
            "and samples never certify"
        )
    else:
        rays = find_admissible_rays(system, hints=hints)
        note = "bounded search found no rays; absence is not a proof"
    conditions["admissible_rays"] = (
        ConditionResult("pass", witness=rays)
        if rays is not None
        else ConditionResult("inconclusive", note=note)
    )

    note = "no self-mapped box certified"
    try:
        box = invariant_box(system)
    except (EmptyFixedPointSetError, UnresolvableEnclosureError) as err:
        box, note = None, str(err)
    conditions["self_mapped_box"] = (
        ConditionResult("pass", witness=box)
        if box is not None
        else ConditionResult("inconclusive", note=note)
    )

    if sc and zone is not None and not zone.is_empty and (
        conditions["quotient_in_unit_sector"].status == "pass"
        or conditions["admissible_rays"].status == "pass"
    ):
        cls = "Consensus"
    elif (
        sc
        and conditions["strict_quotient_off_fixed_set"].status == "pass"
        and conditions["consensus_zone_nonempty"].status == "fail"
    ):
        cls = "UniqueEquilibrium"
    elif box is not None:
        cls = "EquilibriumExists"
    else:
        cls = "Inconclusive"
        failing = [n for n, c in conditions.items() if c.status != "pass"]
        conditions["inconclusive_because"] = ConditionResult(
            "inconclusive", witness=failing
        )

    return TheoremVerdict(cls, conditions, zone, rays)

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcconsensus import (
    Affine,
    BoxRaySpec,
    GatedIdentity,
    Identity,
    IntervalProjection,
    IntervalSet,
    Mix,
    PiecewiseLinear,
    Saturation,
    ScaledSine,
    System,
    Tabulated,
    build_digraph,
    classify_system,
    consensus_zone,
    find_admissible_rays,
    fixed_point_set,
    scenario_by_name,
    sector_membership,
    system_from_dict,
    system_to_dict,
)
from tcconsensus import analysis, constraints, equilibrium
from tcconsensus.analysis import (
    _candidate_boxes,
    _contains_interval,
    _spec_admits_all,
    _unit_product_rays,
)
from tcconsensus.constraints import BISECTION_FP_TOL
from tcconsensus.errors import UnresolvableEnclosureError
from tcconsensus.scenarios import builtin_scenarios
from test_dynamics import bin_table_system, load_netgen, random_catalog_system


def two_agent(f_01, f_10):
    g = build_digraph([[0.0, 1.0], [1.0, 0.0]])
    return System(g, {(1, 0): f_10, (0, 1): f_01})


def all_identity(n=3):
    g = build_digraph(np.ones((n, n)) - np.eye(n))
    return System(g, {e: Identity() for e in g.edges()})


# the wide-network benchmark's five shapes: all fix [-1, 1]; the last breaks
# the unit chord-slope sector, so classification needs the ray search
WIDE_SHAPES = (
    Saturation(-1.0, 1.0),
    IntervalProjection(-1.0, 1.0, 0.5),
    IntervalProjection(-1.5, 1.5, 0.25),
    GatedIdentity(-2.0, 2.0),
    PiecewiseLinear(((-1.0, -1.0), (1.0, 1.0)), 0.0, -1.5),
)


def ring_plus_random(n=12, extra=3, seed=0):
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n):
        others = [j for j in range(n) if j not in (i, (i - 1) % n)]
        w[i, [(i - 1) % n, *rng.choice(others, extra, replace=False)]] = 1.0
    g = build_digraph(w)
    edges = sorted(g.edges())
    shapes = {e: WIDE_SHAPES[k % len(WIDE_SHAPES)] for k, e in enumerate(edges)}
    return System(g, shapes)


def pchip_dip_ring():
    """ROADMAP direction 1's reproduction: a 2-agent ring with
    clip(x/2, -1, 1), dipped to -5 at x = -3.05, as a pchip on both edges.
    The lower-region condition x <= f(x) fails on about (-3.0549, -3.0451),
    and (c, c) with c = -3.0549 is an equilibrium away from the origin."""
    xs = (-6, -5, -4, -3.2, -3.06, -3.05, -3.04, -2.9, -2, -1, 0, 1, 2, 3, 4, 5, 6)
    ys = [-5.0 if x == -3.05 else min(max(0.5 * x, -1.0), 1.0) for x in xs]
    f = Tabulated(xs, tuple(ys), "pchip")
    return two_agent(f, f)


def pchip_rings():
    """The pchip-dip ring and ROADMAP direction 16's reproductions, by name.
    Reproduction A: f(x) > x on (0, s), and the whole function lies inside
    one sampling step. Reproduction B: a box in the outer zone at scale
    16."""
    rings = {"dip": pchip_dip_ring()}
    for s, name in ((2.0**-6, "A-2^-6"), (2.0**-10, "A-2^-10")):
        pchip = Tabulated(
            tuple(s * x for x in (-2.0, -1.0, 1.0, 2.0)),
            tuple(s * y for y in (-1.5, -1.0, 1.0, 1.5)),
            "pchip",
        )
        rings[name] = two_agent(pchip, pchip)
    rings["B-16"] = System(
        build_digraph([[0.0, 1.0, 0.5], [1.0, 0.0, 0.7], [0.3, 1.2, 0.0]]),
        dict.fromkeys(
            [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)],
            Tabulated(
                tuple(16.0 * x for x in (-6, -3, -1, -0.5, 0, 0.5, 1, 3, 6)),
                tuple(16.0 * y for y in (-2, -1.4, -1, -0.5, 0, 0.5, 1, 1.4, 2)),
                "pchip",
            ),
        ),
    )
    return rings


def ring(fns):
    """Directed ring ``i -> i+1`` whose edge out of agent ``i`` is ``fns[i]``."""
    n = len(fns)
    w = np.zeros((n, n))
    for i in range(n):
        w[(i + 1) % n, i] = 1.0
    return System(build_digraph(w), {(i, (i + 1) % n): f for i, f in enumerate(fns)})


def mixed_ring():
    """Exact fixed sets {2} and {-2} beside a sine-affine mix whose range is
    unbounded; every chord slope lies in [0.1, 0.5]."""
    return ring([Affine(0.5, 1.0), Affine(0.5, -1.0), Mix(Affine(0.5), ScaledSine(0.3))])


# bounded fixed sets, exact and enclosed, several of them through the origin
ZONE_POOL = (
    Identity(),
    Saturation(-1.0, 1.0),
    IntervalProjection(-1.0, 1.0, 0.5),
    GatedIdentity(-0.5, 2.0),
    Affine(-0.5, 0.0),
    Affine(0.5, 1.0),
    ScaledSine(1.0, math.pi),
    ScaledSine(0.5, 0.0),
    ScaledSine(2.5, 0.0),
    Tabulated((-2.0, -1.0, 1.0, 2.0), (-1.5, -1.0, 1.0, 1.5), "pchip"),
)


PCHIP_NOTE = (
    "not searched: a pchip edge's sector conditions are only sampled, "
    "and samples never certify"
)


def diverging_pair():
    # tails of slope -1.1 cross any unit-product rays far from the box
    f = PiecewiseLinear(((-1.0, -1.0), (1.0, 1.0)), -1.1, -1.1)
    return two_agent(f, f)


class TestConsensusZone:
    def test_ex2_zone(self):
        zone = consensus_zone(scenario_by_name("ex2").system)
        assert zone.pieces == ((-1.0, 1.0),)

    def test_all_identity_is_whole_line(self):
        zone = consensus_zone(all_identity())
        assert zone.pieces == ((-float("inf"), float("inf")),)

    def test_disjoint_affine_pair_is_empty(self):
        # {2/3} and {-2/3} from the two linear solves do not intersect
        sys_ = two_agent(Affine(-0.5, 1.0), Affine(-0.5, -1.0))
        assert consensus_zone(sys_).is_empty

    def test_zone_subset_of_every_edge_set(self):
        for name in ("ex1", "ex2", "interval", "discarded", "sine"):
            sys_ = scenario_by_name(name).system
            zone = consensus_zone(sys_)
            for _, fn in sys_.constraints.items():
                theta = fixed_point_set(fn)
                for lo, hi in zone.pieces:
                    assert theta.contains(lo) and theta.contains(hi)

    def test_zone_does_not_grow_with_edge_count(self):
        fn = ScaledSine(1.0, math.pi)
        zones = []
        for n in (3, 8):
            g = build_digraph(np.ones((n, n)) - np.eye(n))
            zones.append(consensus_zone(System(g, {e: fn for e in g.edges()})))
        assert zones[0].pieces == zones[1].pieces

    @pytest.mark.parametrize("k", [2, 8, 32])
    def test_distinct_enclosures_are_padded_once(self, k):
        # k distinct functions, each fixing only the origin: each enclosure
        # is padded once where it is made, and intersecting them adds nothing
        sys_ = ring([ScaledSine(a, math.pi) for a in np.linspace(0.2, 0.9, k)])
        assert len(sys_.distinct) == k
        lo, hi = consensus_zone(sys_).hull()
        assert lo <= 0.0 <= hi
        assert hi - lo <= 2 * BISECTION_FP_TOL

    @given(st.lists(st.sampled_from(ZONE_POOL), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_zone_is_the_plain_intersection_in_any_order(self, fns):
        sys_ = ring(fns)
        want = IntervalSet.reals()
        for _, fn in reversed(sys_.distinct):
            want = want.intersect(fixed_point_set(fn))
        assert consensus_zone(sys_) == want

    def test_ex1_zone_is_origin(self):
        zone = consensus_zone(scenario_by_name("ex1").system)
        assert zone.contains(0.0, slack=1e-8)
        lo, hi = zone.hull()
        assert abs(lo) < 1e-8 and abs(hi) < 1e-8


class TestFindAdmissibleRays:
    def test_ex2_rays(self):
        sc = scenario_by_name("ex2")
        spec = find_admissible_rays(sc.system, hints=sc.ray_hints)
        assert spec is not None
        assert (spec.box_lo, spec.box_hi) == (-1.0, 1.0)
        assert spec.slope_product == pytest.approx(0.64)

    def test_ex1_rays(self):
        sc = scenario_by_name("ex1")
        spec = find_admissible_rays(sc.system, hints=sc.ray_hints)
        assert spec is not None
        assert spec.box_lo == spec.box_hi == 0.0
        assert spec.slope_product == pytest.approx(0.8)

    def test_found_spec_admits_every_edge(self):
        sc = scenario_by_name("ex2")
        spec = find_admissible_rays(sc.system, hints=sc.ray_hints)
        for _, fn in sc.system.constraints.items():
            report = sector_membership(fn, spec)
            assert report.lower.passed and report.upper.passed

    def test_all_identity_finds_spec(self):
        assert find_admissible_rays(all_identity()) is not None

    def test_bipartite_finds_none(self):
        assert find_admissible_rays(scenario_by_name("bipartite").system) is None

    @pytest.mark.parametrize("make", [all_identity, ring_plus_random])
    def test_closed_form_slopes_are_certified(self, make):
        system = make()
        spec = find_admissible_rays(system)
        assert spec is not None
        assert spec.k1 < 0 and spec.k2 < 0
        assert abs(spec.k1 * spec.k2 - 1.0) <= 1e-9
        for _, fn in system.distinct:
            assert sector_membership(fn, spec).passed

    def test_diverging_tails_get_no_rays(self):
        system = diverging_pair()
        assert find_admissible_rays(system) is None
        assert classify_system(system).classification != "Consensus"

    def test_pchip_dip_box_is_a_box_violation(self):
        # the theorem-1 spec the search used to return for the dip ring: its
        # box [-3.0549, 2e-8] holds the dip, where f falls to about -5
        system = pchip_dip_ring()
        (_, f), = system.distinct
        lo = -3.0549084956516124
        spec = BoxRaySpec(lo, 2e-8, lo, -16.87570549977402, -0.059256781887631504)
        box = sector_membership(f, spec).box
        assert not box.passed and -3.0549 < box.first_violation < -3.0451

    def test_pchip_dip_ring_does_not_pass_admissible_rays(self):
        # the ray conditions of non-PWL edges are sampled on a 0.1-spaced
        # grid that steps over the dip, so a pchip edge certifies nothing
        verdict = classify_system(pchip_dip_ring())
        assert verdict.conditions["admissible_rays"].status != "pass"

    @pytest.mark.parametrize("name", ["A-2^-6", "A-2^-10", "B-16"])
    def test_rescaled_pchip_rings_are_inconclusive(self, name):
        verdict = classify_system(pchip_rings()[name])
        assert verdict.classification == "Inconclusive"
        assert verdict.conditions["admissible_rays"].status == "inconclusive"

    @pytest.mark.parametrize("name", ["dip", "A-2^-6", "A-2^-10", "B-16"])
    def test_pchip_rings_are_not_searched(self, name, monkeypatch):
        # a pchip edge certifies nothing, so the search is not run: no
        # sector, ratio or box sample is taken, and the ledger is as when
        # every candidate was searched and refused
        system = pchip_rings()[name]
        calls = []

        def counting(module, attr):
            fn = getattr(module, attr)

            def wrapped(*args, **kwargs):
                calls.append(attr)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, attr, wrapped)

        counting(analysis, "sector_membership")
        counting(analysis, "ratio_range")
        counting(constraints, "ratio_range")
        counting(constraints, "box_violation")
        counting(equilibrium, "box_violation")
        verdict = classify_system(system)
        assert find_admissible_rays(system) is None
        assert calls == []
        assert verdict.classification == "Inconclusive"
        statuses = {key: c.status for key, c in verdict.conditions.items()}
        assert statuses == {
            "strongly_connected": "pass",
            "consensus_zone_nonempty": "pass",
            "quotient_in_unit_sector": "fail",
            "strict_quotient_off_fixed_set": "fail",
            "admissible_rays": "inconclusive",
            "self_mapped_box": "inconclusive",
            "inconclusive_because": "inconclusive",
        }
        assert verdict.conditions["admissible_rays"].note == PCHIP_NOTE

    @pytest.mark.parametrize("wrap", ["plain", "mix", "nested-mix"])
    def test_a_pchip_member_refuses_a_spec_that_passes_its_sectors(self, wrap):
        # the spec the search once returned for the dip ring: the samples
        # pass every sector, the identity ring admits it
        (_, dip), = pchip_dip_ring().distinct
        fn = {
            "plain": dip,
            "mix": Mix(Identity(), dip, 0.5),
            "nested-mix": Mix(Mix(Identity(), dip, 0.5), Identity(), 0.5),
        }[wrap]
        system = two_agent(fn, fn)
        spec = BoxRaySpec(-1e-8, 1e-8, -1e-8, -1.0, -1.0)
        report = sector_membership(fn, spec)
        assert report.lower.passed and report.upper.passed
        assert _contains_interval(consensus_zone(system), spec.box_lo, spec.box_hi)
        assert find_admissible_rays(system, hints=(spec,)) is None
        linear = two_agent(Identity(), Identity())
        assert find_admissible_rays(linear, hints=(spec,)) is spec

    def test_a_pchip_hint_names_the_rule(self):
        # a hint makes the classifier search even where the chord slopes
        # certify consensus; a pchip edge still stops it, and the note says why
        pchip = Tabulated((-2.0, -1.0, 1.0, 2.0), (-1.5, -1.0, 1.0, 1.5), "pchip")
        spec = BoxRaySpec(-1e-8, 1e-8, -1e-8, -1.0, -1.0)
        rays = classify_system(two_agent(pchip, pchip), hints=(spec,)).conditions[
            "admissible_rays"
        ]
        assert (rays.status, rays.note) == ("inconclusive", PCHIP_NOTE)
        rays = classify_system(diverging_pair()).conditions["admissible_rays"]
        assert rays.note == "bounded search found no rays; absence is not a proof"

    def test_bad_hint_is_ignored(self):
        sc = scenario_by_name("ex2")
        bad = BoxRaySpec(-10.0, 10.0, 0.0, -0.8, -0.8)
        spec = find_admissible_rays(sc.system, hints=(bad,) + sc.ray_hints)
        assert spec is not None and spec != bad


def former_candidate_boxes(system: System, phi: IntervalSet) -> list[tuple[float, float]]:
    """The former box list, kept as the oracle: the zone's hull and pieces,
    then the hull of the bounded fixed sets grown 1, 1.5, 2 and 4 times and
    that hull itself, de-duplicated to 12 decimals. The search tried only
    the boxes that pass ``_contains_interval``."""
    boxes: list[tuple[float, float]] = []
    if not phi.is_empty and phi.is_bounded:
        boxes.append(phi.hull())
        boxes.extend((lo, hi) for lo, hi in phi.pieces)
    elif not phi.is_empty:
        # unbounded zone (identity-like edges): try small degenerate boxes
        boxes.append((0.0, 0.0))
        boxes.extend((lo, hi) for lo, hi in phi.pieces if math.isfinite(lo) and math.isfinite(hi))
    # geometric expansions of the union-of-fixed-points hull
    lo = math.inf
    hi = -math.inf
    for _, fn in system.distinct:
        try:
            theta = fixed_point_set(fn)
        except UnresolvableEnclosureError:
            continue
        if theta.is_empty or not theta.is_bounded:
            continue
        a, b = theta.hull()
        lo, hi = min(lo, a), max(hi, b)
    if math.isfinite(lo) and math.isfinite(hi):
        c = 0.5 * (lo + hi)
        h = max(0.5 * (hi - lo), 0.5)
        for scale in (1.0, 1.5, 2.0, 4.0):
            boxes.append((c - scale * h, c + scale * h))
        boxes.append((lo, hi))
    seen = set()
    out = []
    for b in boxes:
        key = (round(b[0], 12), round(b[1], 12))
        if key not in seen:
            seen.add(key)
            out.append(b)
    return out


def oracle_systems():
    """(id, system, hints): the nine scenarios with and without their hints,
    the wide networks at n = 50 and 200, and 900 seeded catalog systems."""
    for sc in builtin_scenarios():
        yield sc.name, sc.system, ()
        yield f"{sc.name}+hints", sc.system, sc.ray_hints
    netgen = load_netgen()
    for n in (50, 200):
        for seed in range(1, 6):
            yield f"wide{n}-{seed}", system_from_dict(netgen.wide_network(seed, n)), ()
    for seed in range(600):
        yield f"catalog-{seed}", random_catalog_system(seed), ()
    for seed in range(300):
        yield f"bin-table-{seed}", bin_table_system(seed), ()


class TestCandidateBoxesMatchTheFormerSearch:
    def test_results_match(self, monkeypatch):
        searched = 0
        for name, system, hints in oracle_systems():
            phi = consensus_zone(system)
            kept = [b for b in former_candidate_boxes(system, phi)
                    if _contains_interval(phi, *b)]
            assert _candidate_boxes(phi) == kept, name
            new = (find_admissible_rays(system, hints),
                   classify_system(system, hints).to_dict())
            with monkeypatch.context() as m:
                m.setattr(analysis, "_candidate_boxes", lambda phi: kept)
                old = (find_admissible_rays(system, hints),
                       classify_system(system, hints).to_dict())
            assert new == old, name
            spec = new[0]
            if spec is not None:
                searched += 1
                # what the search returns passes theorem 2's sector test on
                # every distinct function, whatever the acceptance margins
                for _, fn in system.distinct:
                    assert sector_membership(fn, spec).passed, name
        assert searched >= 150

    def test_unbounded_zone_tries_the_origin_first(self):
        phi = IntervalSet(((-3.0, -2.0), (0.0, 0.0), (1.0, math.inf)))
        assert _candidate_boxes(phi) == [(0.0, 0.0), (-3.0, -2.0)]
        assert _candidate_boxes(IntervalSet(((1.0, math.inf),))) == []
        assert _candidate_boxes(IntervalSet.reals()) == [(0.0, 0.0)]
        assert _candidate_boxes(IntervalSet.empty()) == []


class TestConstructedSpecIsRechecked:
    """``_unit_product_rays`` solves ``(p+t)(q+t) = 1`` in floats, and
    ``_spec_admits_all`` re-verifies the spec it builds."""

    @staticmethod
    def pair(eps):
        # zone {0}; tails of slope -2 and -(1 - eps)/2: p = 2, q = (1 - eps)/2
        f = PiecewiseLinear(((0.0, 0.0),), -2.0, -0.5 * (1 - eps))
        return two_agent(f, f)

    def test_slack_below_the_strict_margin_is_refused(self):
        # the exact product p*q is below 1, so t > 0 exists; but the t that
        # comes out (about 1e-15) is below STRICT_MARGIN, and the sector
        # check refuses the spec. Zero-slack decisions (ROADMAP direction 9)
        # may turn this case into a pass.
        system = self.pair(5e-15)
        spec = _unit_product_rays(system, 0.0, 0.0, 0.0)
        assert spec.k1 == -2.0000000000000018
        assert not _spec_admits_all(system, spec, consensus_zone(system))
        assert find_admissible_rays(system) is None
        assert classify_system(system).conditions["admissible_rays"].status == "inconclusive"

    def test_slack_above_the_strict_margin_passes(self):
        system = self.pair(1e-9)
        spec = find_admissible_rays(system)
        assert spec == _unit_product_rays(system, 0.0, 0.0, 0.0)
        assert spec.k1 == -2.0000000004
        assert classify_system(system).conditions["admissible_rays"].status == "pass"


LEDGER_CONDITIONS = (
    "strongly_connected",
    "consensus_zone_nonempty",
    "quotient_in_unit_sector",
    "strict_quotient_off_fixed_set",
    "admissible_rays",
    "self_mapped_box",
    "inconclusive_because",
)
P, F, I = "pass", "fail", "inconclusive"
# every built-in scenario's classification and ledger statuses, in the order
# of LEDGER_CONDITIONS (inconclusive_because only on Inconclusive verdicts)
SCENARIO_LEDGERS = {
    "ex1": ("Consensus", (P, P, P, P, P, P)),
    "ex2": ("Consensus", (P, P, P, P, P, P)),
    "ex3": ("UniqueEquilibrium", (P, F, P, P, I, P)),
    "ex4": ("EquilibriumExists", (P, F, P, F, I, P)),
    "interval": ("Consensus", (P, P, P, P, I, P)),
    "discarded": ("Consensus", (P, P, P, P, I, P)),
    "sine": ("Consensus", (P, P, P, P, I, I)),
    "necessity-2agent": ("Inconclusive", (P, F, P, F, I, I, I)),
    "bipartite": ("Inconclusive", (P, P, F, F, I, I, I)),
}


class TestClassify:
    def test_unique_equilibrium_case(self):
        verdict = classify_system(scenario_by_name("ex3").system)
        assert verdict.classification == "UniqueEquilibrium"
        assert verdict.conditions["consensus_zone_nonempty"].status == "fail"
        assert verdict.conditions["strict_quotient_off_fixed_set"].status == "pass"

    def test_pwl_pchip_mix_with_a_unit_slope_chord_fails_the_strict_bound(self):
        # x + 0.5 on [-1, 1] in both members: a chord of slope 1 anchored off
        # the fixed point x = 2, so the strict hypothesis fails
        ts = (-2.0, -1.0, 0.0, 1.0, 2.0)
        pchip = Tabulated(ts, tuple(t + 0.5 for t in ts), "pchip")
        f = Mix(PiecewiseLinear(((-1.0, -0.5), (1.0, 1.5))), pchip, 0.5)
        verdict = classify_system(two_agent(f, f))
        strict = verdict.conditions["strict_quotient_off_fixed_set"]
        assert strict.status == "fail" and strict.witness == (0.0, 1.0)

    def test_monotone_pchip_ring_passes_on_chord_slopes(self):
        f = Tabulated(
            (-2.0, -1.0, 0.0, 1.0, 2.0), (-1.0, -0.8, 0.0, 0.8, 1.0), "pchip"
        )
        verdict = classify_system(ring([f, f, f]))
        assert verdict.conditions["quotient_in_unit_sector"].status == "pass"
        assert verdict.conditions["strict_quotient_off_fixed_set"].status == "pass"
        assert verdict.classification == "Consensus"
        rays = verdict.conditions["admissible_rays"]
        assert rays.status == "inconclusive" and rays.note.startswith("not searched")
        assert verdict.rays is None

    def test_unique_equilibrium_beside_an_unbounded_enclosure(self):
        # the exact sets prove the zone empty and every chord slope lies in
        # [0.1, 0.5], so the Picard map contracts
        verdict = classify_system(mixed_ring())
        assert verdict.conditions["consensus_zone_nonempty"].status == "fail"
        assert verdict.classification == "UniqueEquilibrium"

    def test_catalog_system_with_disjoint_exact_sets_fails_the_zone(self):
        verdict = classify_system(random_catalog_system(0))
        assert verdict.conditions["consensus_zone_nonempty"].status == "fail"

    def test_catalog_sine_affine_mix_fails_the_zone(self):
        # Mix(ScaledSine(0.8, pi), Affine(-0.5)) has the linear envelope
        # |f(x) + 0.25x| <= 0.4, so its fixed points lie in |x| <= 0.32: the
        # scan finds only 0, which the other function's exact {2/3} misses
        verdict = classify_system(random_catalog_system(11))
        assert verdict.conditions["consensus_zone_nonempty"].status == "fail"
        assert verdict.classification == "UniqueEquilibrium"

    @pytest.mark.parametrize("name", sorted(SCENARIO_LEDGERS))
    def test_scenario_ledgers(self, name):
        sc = scenario_by_name(name)
        verdict = classify_system(sc.system, hints=sc.ray_hints)
        classification, statuses = SCENARIO_LEDGERS[name]
        assert verdict.classification == classification
        assert {k: c.status for k, c in verdict.conditions.items()} == dict(
            zip(LEDGER_CONDITIONS, statuses)
        )

    def test_consensus_case(self):
        sc = scenario_by_name("ex2")
        verdict = classify_system(sc.system, hints=sc.ray_hints)
        assert verdict.classification == "Consensus"

    def test_equilibrium_exists_case(self):
        verdict = classify_system(scenario_by_name("ex4").system)
        assert verdict.classification == "EquilibriumExists"
        assert verdict.conditions["self_mapped_box"].status == "pass"

    def test_bipartite_inconclusive_names_failures(self):
        verdict = classify_system(scenario_by_name("bipartite").system)
        assert verdict.classification == "Inconclusive"
        failing = verdict.conditions["inconclusive_because"].witness
        assert "quotient_in_unit_sector" in failing or "admissible_rays" in failing
        # the -1 chord slope is the concrete violation
        q = verdict.conditions["quotient_in_unit_sector"]
        assert q.status == "fail" and q.witness[0] == pytest.approx(-1.0)

    @pytest.mark.parametrize(
        "name, note",
        [
            # invariant_box raises: the note is its reason
            ("necessity-2agent", "edge (0, 1) has an empty fixed-point set"),
            # invariant_box finds no box without raising
            ("sine", "no self-mapped box certified"),
            ("bipartite", "no self-mapped box certified"),
            ("netgen-200", "no self-mapped box certified"),
        ],
    )
    def test_self_mapped_box_note_names_its_reason(self, name, note):
        if name == "netgen-200":
            system = system_from_dict(load_netgen().wide_network(1, 200))
        else:
            system = scenario_by_name(name).system
        box = classify_system(system).conditions["self_mapped_box"]
        assert (box.status, box.witness, box.note) == ("inconclusive", None, note)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP direction 9: the unit-sector test accepts chord slopes "
        "up to 1 + QUOTIENT_EDGE_TOL",
    )
    def test_affine_ring_just_above_unit_slope_is_inconclusive(self):
        # the linearisation has eigenvalue k - 1 = 5e-13 > 0 along (1, 1), so
        # a start off the origin never reaches the zone {0}
        f = Affine(1.0000000000005, 0.0)
        verdict = classify_system(two_agent(f, f))
        assert verdict.conditions["quotient_in_unit_sector"].status != "pass"
        assert verdict.classification == "Inconclusive"

    def test_affine_ring_above_the_margin_fails_the_unit_sector(self):
        f = Affine(1 + 2e-12, 0.0)
        verdict = classify_system(two_agent(f, f))
        assert verdict.conditions["quotient_in_unit_sector"].status == "fail"
        assert verdict.classification == "Inconclusive"

    @staticmethod
    def ex2_spec_with_slope_product(product):
        scenario = scenario_by_name("ex2")
        hint = scenario.ray_hints[0]
        spec = dataclasses.replace(hint, k2=product / hint.k1)
        assert spec.slope_product == product
        return scenario.system, spec

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP direction 9: theorem 2 accepts slope products up to "
        "1 + 1e-9",
    )
    def test_theorem2_spec_just_above_unit_product_is_refused(self):
        system, spec = self.ex2_spec_with_slope_product(1.0000000005)
        zone = consensus_zone(system)
        assert not _spec_admits_all(system, spec, zone)

    def test_theorem2_spec_above_the_margin_is_refused(self):
        system, spec = self.ex2_spec_with_slope_product(1.000000002)
        zone = consensus_zone(system)
        assert not _spec_admits_all(system, spec, zone)

    def test_vacuous_strict_chord_slope_condition_has_no_witness(self):
        verdict = classify_system(all_identity())
        strict = verdict.conditions["strict_quotient_off_fixed_set"]
        assert strict.status == "pass" and strict.witness is None
        assert strict.note.startswith("vacuous")
        plain = verdict.conditions["quotient_in_unit_sector"]
        assert plain.witness == (1.0, 1.0)

    def test_not_strongly_connected_is_inconclusive(self):
        g = build_digraph([[0.0, 1.0], [0.0, 0.0]])
        sys_ = System(g, {(1, 0): Identity()})
        verdict = classify_system(sys_)
        assert verdict.classification == "Inconclusive"
        assert verdict.conditions["strongly_connected"].status == "fail"

    def test_verdict_is_json_serializable(self):
        for name in ("ex1", "ex2", "ex3", "ex4", "bipartite"):
            sc = scenario_by_name(name)
            verdict = classify_system(sc.system, hints=sc.ray_hints)
            text = json.dumps(verdict.to_dict(), sort_keys=True)
            assert name != "" and text

    def test_deterministic(self):
        sc = scenario_by_name("ex1")
        a = classify_system(sc.system, hints=sc.ray_hints)
        b = classify_system(sc.system, hints=sc.ray_hints)
        assert a.to_dict() == b.to_dict()

    def test_zone_attached_to_verdict(self):
        verdict = classify_system(scenario_by_name("ex2").system)
        assert isinstance(verdict.zone, IntervalSet)
        assert verdict.zone.pieces == ((-1.0, 1.0),)

    @pytest.mark.parametrize("sc", builtin_scenarios(), ids=lambda sc: sc.name)
    def test_equal_valued_copies_classify_alike(self, sc):
        copy = system_from_dict(system_to_dict(sc.system))
        assert (
            classify_system(copy, sc.ray_hints).to_dict()
            == classify_system(sc.system, sc.ray_hints).to_dict()
        )


# classifies the two scenarios with non-piecewise-linear edges and a pchip
# ring, evaluates the pchip edge, then lists the scipy modules loaded
NO_SCIPY_PROBE = """
import sys
import numpy as np
from tcconsensus import Tabulated, System, build_digraph, classify_system
from tcconsensus import scenario_by_name
for name in ("ex1", "sine"):
    sc = scenario_by_name(name)
    assert classify_system(sc.system, sc.ray_hints).classification == sc.expected_class
f = Tabulated((-2.0, -1.0, 1.0, 2.0), (-1.5, -1.0, 1.0, 1.5), "pchip")
ring = System(build_digraph([[0.0, 1.0], [1.0, 0.0]]), {(0, 1): f, (1, 0): f})
classify_system(ring)
f.eval_array(np.linspace(-3.0, 3.0, 13))
f.evaluate(0.5)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_fresh_interpreter_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"

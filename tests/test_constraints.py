import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

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
    Tabulated,
    difference_quotient_bounds,
    fixed_point_set,
    from_dict,
    sector_membership,
)
from tcconsensus import constraints
from tcconsensus.constraints import ratio_range
from tcconsensus.errors import (
    UnknownConstraintVariantError,
    UnresolvableEnclosureError,
    ValidationError,
)

CATALOG = [
    Identity(),
    Affine(-0.5, 1.0),
    Affine(1.0, 0.5),
    Saturation(-1.0, 1.0),
    IntervalProjection(-1.0, 1.0, 0.5),
    ScaledSine(1.0, math.pi),
    ScaledSine(0.5, 0.0),
    PiecewiseLinear(((-1.0, -1.0), (1.0, 1.0)), -0.5, -0.5),
    PiecewiseLinear(((0.0, 0.0),), -0.9, -0.7),
    GatedIdentity(-2.0, 2.0),
    Tabulated((-2.0, 0.0, 2.0), (-1.0, 0.0, 1.0)),
    Tabulated((-2.0, -1.0, 1.0, 2.0), (-1.5, -1.0, 1.0, 1.5), "pchip"),
    Mix(Affine(0.5, 0.0), Saturation(-1.0, 1.0)),
    Mix(ScaledSine(0.8, math.pi), Affine(-0.5, 0.0), 0.5),
]


class TestEvaluate:
    def test_interval_projection_above(self):
        f = IntervalProjection(-1.0, 1.0, 0.5)
        assert f.evaluate(2.0) == pytest.approx(1.5)

    def test_interval_projection_below_and_inside(self):
        f = IntervalProjection(-1.0, 1.0, 0.5)
        assert f.evaluate(-3.0) == pytest.approx(0.5 * -3.0 + 0.5 * -1.0)
        assert f.evaluate(0.25) == 0.25

    def test_scaled_sine_at_origin(self):
        assert ScaledSine(1.0, math.pi).evaluate(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_saturation_interior(self):
        assert Saturation(-1.0, 1.0).evaluate(0.3) == 0.3

    def test_saturation_clamps(self):
        assert Saturation(-1.0, 1.0).evaluate(5.0) == 1.0

    def test_piecewise_linear_tails(self):
        f = PiecewiseLinear(((0.0, 0.0),), -0.9, -0.7)
        assert f.evaluate(-2.0) == pytest.approx(1.8)
        assert f.evaluate(3.0) == pytest.approx(-2.1)

    def test_mix_is_pointwise_average(self):
        f = Mix(Affine(1.0, 0.0), Affine(0.0, 2.0), 0.25)
        assert f.evaluate(4.0) == pytest.approx(0.25 * 4.0 + 0.75 * 2.0)

    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.variant)
    def test_eval_array_matches_scalar(self, f):
        xs = np.linspace(-3, 3, 41)
        got = f.eval_array(xs)
        want = np.array([f.evaluate(float(x)) for x in xs])
        assert np.abs(got - want).max() < 1e-12

    def test_interval_projection_validation(self):
        with pytest.raises(ValueError):
            IntervalProjection(1.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            IntervalProjection(-1.0, 1.0, 1.5)

    def test_mix_rejects_a_gated_member(self):
        for pair in (
            (GatedIdentity(-1.0, 1.0), Identity()),
            (Identity(), GatedIdentity(-1.0, 1.0)),
        ):
            with pytest.raises(ValueError, match="gated"):
                Mix(*pair, 0.5)

    def test_piecewise_linear_knots_must_increase(self):
        for knots in (
            ((1.0, 0.0), (0.0, 1.0)),
            ((0.0, 0.0), (math.nan, 1.0), (2.0, 2.0)),
            ((0.0, 0.0), (1.0, math.nan), (2.0, 2.0)),
            ((0.0, 0.0), (math.inf, 1.0)),
            ((0.0, -math.inf), (1.0, 1.0)),
        ):
            with pytest.raises(ValueError):
                PiecewiseLinear(knots)


class TestLinearEnvelope:
    @pytest.mark.parametrize(
        "f, envelope",
        [
            (Affine(-0.5, 1.0), (-0.5, 1.0)),
            (Affine(0.5, -2.0), (0.5, 2.0)),
            (ScaledSine(0.8, math.pi), (0.0, 0.8)),
            (Saturation(-1.0, 2.0), (0.0, 2.0)),
            (Tabulated((-2.0, 0.0, 2.0), (-3.0, 0.0, 1.0), "pchip"), (0.0, 3.0)),
            (IntervalProjection(-1.0, 1.0, 0.5), (0.5, 0.5)),
            (Mix(ScaledSine(0.8, math.pi), Affine(-0.5, 0.0)), (-0.25, 0.4)),
            (PiecewiseLinear(((0.0, 0.0),), -0.9, -0.7), None),
            (Mix(ScaledSine(0.5), PiecewiseLinear(((0.0, 0.0),), -0.9, -0.7)), None),
        ],
    )
    def test_envelope(self, f, envelope):
        assert f.envelope() == envelope

    @pytest.mark.parametrize("f", CATALOG, ids=repr)
    def test_envelope_bounds_the_function(self, f):
        envelope = f.envelope()
        if envelope is None:
            return
        s, c = envelope
        xs = np.linspace(-50.0, 50.0, 20001)
        gap = np.abs(f.eval_array(xs) - s * xs)
        assert (gap <= c + 1e-12 * (1.0 + np.abs(xs))).all()

    def test_sine_affine_mix_has_enclosed_fixed_points(self):
        # |f(x) - x| >= 1.25|x| - 0.4: fixed points lie in |x| <= 0.32
        theta = fixed_point_set(Mix(ScaledSine(0.8, math.pi), Affine(-0.5, 0.0)))
        (lo, hi), = theta.pieces
        tol = constraints.BISECTION_FP_TOL
        assert -2 * tol <= lo <= 0.0 <= hi <= 2 * tol

    @pytest.mark.parametrize(
        "f",
        [
            # slope one: f(x) - x stays bounded, so no window follows
            Mix(ScaledSine(0.5), Affine(1.0, 0.0), 0.0),
            Mix(ScaledSine(0.5), PiecewiseLinear(((0.0, 0.0),), -0.9, -0.7)),
        ],
    )
    def test_no_envelope_bound_still_refuses(self, f):
        with pytest.raises(UnresolvableEnclosureError):
            fixed_point_set(f)


class TestFixedPointSet:
    def test_saturation(self):
        assert fixed_point_set(Saturation(-1.0, 1.0)).pieces == ((-1.0, 1.0),)

    def test_affine_linear_oracle(self):
        # solve -0.5x + 1 = x independently: x = 1 / 1.5
        theta = fixed_point_set(Affine(-0.5, 1.0))
        (lo, hi), = theta.pieces
        assert lo == hi == pytest.approx(2.0 / 3.0)

    def test_scaled_sine_origin(self):
        theta = fixed_point_set(ScaledSine(1.0, math.pi))
        assert len(theta.pieces) == 1
        assert theta.contains(0.0, slack=1e-8)

    def test_identity_is_whole_line(self):
        assert fixed_point_set(Identity()).pieces == ((-math.inf, math.inf),)

    def test_gated_identity_is_accepted_interval(self):
        assert fixed_point_set(GatedIdentity(-2.0, 2.0)).pieces == ((-2.0, 2.0),)

    def test_affine_slope_one_nonzero_offset_empty(self):
        assert fixed_point_set(Affine(1.0, 0.5)).is_empty

    def test_pwl_identity_segment_plus_tails(self):
        f = PiecewiseLinear(((-1.0, -1.0), (1.0, 1.0)), -0.5, -0.5)
        assert fixed_point_set(f).pieces == ((-1.0, 1.0),)

    def test_offset_identity_segment_single_root(self):
        # identity-slope middle with offset 0.2: the only fixed point sits on
        # the right tail, at x = 1 + 0.2/1.5
        f = PiecewiseLinear(((-1.0, -0.8), (1.0, 1.2)), -0.5, -0.5)
        (lo, hi), = fixed_point_set(f).pieces
        assert lo == hi == pytest.approx(1.0 + 0.2 / 1.5)

    def test_domain_restriction(self):
        theta = fixed_point_set(Saturation(-1.0, 1.0), IntervalSet.closed(0.0, 5.0))
        assert theta.pieces == ((0.0, 1.0),)

    def test_tabulated_linear_exact(self):
        # linear table y = x/2 on [-2, 2]: the only fixed point is 0
        f = Tabulated((-2.0, 0.0, 2.0), (-1.0, 0.0, 1.0))
        assert fixed_point_set(f).pieces == ((0.0, 0.0),)

    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.variant)
    def test_sign_scan_oracle(self, f):
        """Every certified fixed point has a scan witness and vice versa."""
        xs = np.arange(-20.0, 20.0 + 1e-9, 1e-4)
        if isinstance(f, GatedIdentity):
            g = np.where((xs >= f.lo) & (xs <= f.hi), 0.0, 1.0)
        else:
            g = f.eval_array(xs) - xs
        theta = fixed_point_set(f, IntervalSet.closed(-20.0, 20.0))
        near_zero = np.abs(g) <= 2e-4
        tol = max(constraints.BISECTION_FP_TOL, 1e-3)
        for x, flag in zip(xs[::50], near_zero[::50]):
            if flag and abs(g[int(round((x + 20.0) / 1e-4))]) <= 1e-9:
                assert theta.contains(float(x), slack=tol)
        for lo, hi in theta.pieces:
            mid = 0.5 * (lo + hi)
            idx = int(round((min(max(mid, -20.0), 20.0) + 20.0) / 1e-4))
            assert abs(g[idx]) <= 2e-3

    def test_fixed_points_actually_fixed(self):
        for f in CATALOG:
            if isinstance(f, GatedIdentity):
                continue
            theta = fixed_point_set(f, IntervalSet.closed(-50.0, 50.0))
            tol = 0.0 if f.pwl() is not None else constraints.BISECTION_FP_TOL
            for lo, hi in theta.pieces:
                for x in (lo, hi, 0.5 * (lo + hi)):
                    assert abs(f.evaluate(x) - x) <= max(tol * 2, 1e-9)

    @pytest.mark.parametrize(
        "f", [f for f in CATALOG if f.pwl() is None], ids=lambda f: f.variant
    )
    def test_bisection_roots_against_brentq(self, f, monkeypatch):
        """Each root the scan refines has ``g == 0`` or a sign change of
        ``g`` to a neighbouring float, and lies within 1e-12 of brentq's."""
        calls = []

        def recording(g, a, b):
            root = bisect_root(g, a, b)
            calls.append((g, a, b, root))
            return root

        bisect_root = constraints._bisect_root
        monkeypatch.setattr(constraints, "_bisect_root", recording)
        # irrational ends keep the roots off the scan grid, so each is bisected
        fixed_point_set(f, IntervalSet.closed(-math.pi, math.e))
        assert calls
        for g, a, b, root in calls:
            assert a <= root <= b
            gr = g(root)
            if gr != 0.0:
                sides = [g(math.nextafter(root, t)) for t in (-math.inf, math.inf)]
                assert any((v < 0.0 < gr) or (gr < 0.0 < v) for v in sides)
            assert abs(root - brentq(g, a, b, xtol=1e-12)) <= 1e-12

    def test_bisection_requires_confirmed_sign_change(self):
        with pytest.raises(UnresolvableEnclosureError):
            constraints._bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(UnresolvableEnclosureError):
            constraints._bisect_root(lambda x: math.nan, -1.0, 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_scan_matches_the_loop_oracle(self, seed):
        cases = _scan_cases(seed)
        runs = 0
        for f, domain in cases:
            want = _outcome(_loop_scan, f, domain)
            assert _outcome(constraints._scan_fixed_points, f, domain) == want, f
            if isinstance(want, IntervalSet):
                # wider than a padded root: a run of flat samples
                runs += any(b - a > 1e-6 for a, b in want.pieces)
        assert runs  # the cases include flat runs, not only isolated roots

    def test_scan_flat_run_ends_at_its_last_sample(self):
        # identity on [-1, 1], flat at -2 and 2 beyond +-2: g vanishes on the
        # run and changes sign nowhere else
        f = Tabulated((-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0),
                      (-2.0, -2.0, -2.0, -1.0, 0.0, 1.0, 2.0, 2.0, 2.0), "pchip")
        theta = fixed_point_set(f, IntervalSet.closed(-3.0, 3.0))
        tol = constraints.BISECTION_FP_TOL
        left, (lo, hi), right = theta.pieces
        assert left[0] < -2.0 < left[1] and right[0] < 2.0 < right[1]
        # the run's first and last samples, less the enclosure padding, are
        # flat; the samples a scan step beyond them are not
        for x in (lo + tol, hi - tol):
            assert abs(f.evaluate(x) - x) <= 1e-12
        for x in (lo + tol - 1e-3, hi - tol + 1e-3):
            assert abs(f.evaluate(x) - x) > 1e-12


def _loop_scan(f, domain):
    """The fixed-point scan as a per-sample loop, kept as the oracle for the
    vectorised run and sign-change detection of ``_scan_fixed_points``."""
    lo, hi = constraints._scan_window(f, domain)
    if hi < lo:
        return IntervalSet.empty()
    tol = constraints.BISECTION_FP_TOL
    if hi == lo:
        if abs(f.evaluate(lo) - lo) <= tol:
            return IntervalSet.closed(lo - tol, lo + tol).intersect(domain)
        return IntervalSet.empty()
    n = max(int(math.ceil((hi - lo) / constraints.SCAN_RESOLUTION)) + 1, 16)
    xs = np.linspace(lo, hi, n)
    g = f.eval_array(xs) - xs
    pieces = []
    flat = np.abs(g) <= 1e-12
    i = 0
    while i < n:
        if flat[i]:
            j = i
            while j + 1 < n and flat[j + 1]:
                j += 1
            pieces.append((xs[i], xs[j]))
            i = j + 1
            continue
        if i + 1 < n and not flat[i + 1] and g[i] * g[i + 1] < 0:
            root = constraints._bisect_root(
                lambda x: f.evaluate(x) - x, float(xs[i]), float(xs[i + 1])
            )
            pieces.append((root, root))
        i += 1
    out = IntervalSet.from_pieces([(a - tol, b + tol) for a, b in pieces])
    return out.intersect(domain)


def _outcome(scan, f, domain):
    try:
        return scan(f, domain)
    except UnresolvableEnclosureError as err:
        return type(err)


def _scan_cases(seed):
    """Seeded non-PWL functions with the domains to scan them on: random
    pchip tables (some with an identity stretch, some with a flat stretch
    on the diagonal), random sines and sine-affine mixtures, on the whole
    line, a bounded interval and a two-piece set."""
    rng = np.random.default_rng(seed)
    domains = (
        IntervalSet.reals(),
        IntervalSet.closed(-2.5, 1.75),
        IntervalSet.from_pieces([(-3.0, -0.5), (0.25, 2.0)]),
    )
    cases = []
    for k in range(40):
        n = int(rng.integers(3, 12))
        xs = np.cumsum(rng.uniform(0.05, 1.5, n)) - 3.0
        ys = rng.normal(scale=2.0, size=n)
        if k % 3 == 0 and n >= 5:
            m = int(rng.integers(0, n - 3))
            ys[m : m + 4] = xs[m : m + 4]
        elif k % 3 == 1 and n >= 4:
            m = int(rng.integers(0, n - 2))
            ys[m : m + 3] = xs[m + 1]
        f = Tabulated(tuple(xs), tuple(ys), "pchip")
        cases.append((f, domains[k % 3]))
    for k in range(40):
        amp = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        f = ScaledSine(float(amp), float(rng.uniform(-math.pi, math.pi)))
        if k % 4 == 3:
            f = Mix(f, Affine(float(rng.uniform(-0.9, 0.9))), float(rng.uniform()))
            cases.append((f, domains[1 + k % 2]))
        else:
            cases.append((f, domains[k % 3]))
    return cases


def _pchip_tables():
    rng = np.random.default_rng(7)
    many = np.cumsum(rng.uniform(0.01, 2.0, 40)) - 20.0
    flat = rng.normal(size=40)
    flat[5:12] = flat[5]
    flat[20:23] = 0.0
    return {
        "two": ((-1.0, 2.0), (0.5, -1.5)),
        "three-monotone": ((-1.0, 0.0, 3.0), (-2.0, 0.0, 0.1)),
        "three-peak": ((-1.0, 0.5, 3.0), (-2.0, 1.0, -0.5)),
        "catalog": ((-2.0, -1.0, 1.0, 2.0), (-1.5, -1.0, 1.0, 1.5)),
        "monotone-uneven": (many, np.sort(rng.normal(size=40))),
        "random-uneven": (many, rng.normal(size=40)),
        "flat-runs": (many, flat),
        "signed-zero": ((0.0, 1.0, 2.0, 3.0), (0.1, -0.0, -0.3, -1.3)),
        "steep-ends": ((0.0, 1e-3, 1.0, 1.001), (0.0, 1.0, -1.0, 5.0)),
    }


PCHIP_TABLES = _pchip_tables()

# regions for a pchip derivative range, from the end samples ``(a, b)``
_DERIVATIVE_REGIONS = {
    "whole line": lambda a, b: (-math.inf, math.inf),
    "bounded": lambda a, b: (a + 0.2 * (b - a), a + 0.7 * (b - a)),
    "one point": lambda a, b: (a + 0.37 * (b - a),) * 2,
    "past the samples": lambda a, b: (b + 1.0, b + 5.0),
    "across an end": lambda a, b: (b - 0.25 * (b - a), b + (b - a)),
}


def _pchip_derivative_samples(f, lo, hi):
    """scipy's pchip derivative at 20001 points of ``[lo, hi]`` inside the
    samples, plus the flat tails' 0 when the region reaches past them."""
    a, b = max(lo, f.xs[0]), min(hi, f.xs[-1])
    d = PchipInterpolator(np.array(f.xs), np.array(f.ys)).derivative()
    vals = d(np.linspace(a, b, 20001)) if a <= b else np.empty(0)
    return np.append(vals, 0.0) if lo < f.xs[0] or hi > f.xs[-1] else vals


class TestPchip:
    @pytest.mark.parametrize("table", sorted(PCHIP_TABLES))
    def test_matches_scipy_bitwise(self, table):
        xs, ys = PCHIP_TABLES[table]
        f = Tabulated(tuple(xs), tuple(ys), "pchip")
        lo, hi = f.xs[0], f.xs[-1]
        width = hi - lo
        grid = np.concatenate(
            [np.linspace(lo - width, hi + width, 20001), f.xs, [-np.inf, np.inf]]
        )
        want = PchipInterpolator(np.array(f.xs), np.array(f.ys))(np.clip(grid, lo, hi))
        got = f.eval_array(grid)
        scalar = np.array([f.evaluate(float(x)) for x in grid])
        assert got.tobytes() == want.tobytes()
        assert scalar.tobytes() == want.tobytes()
        k = len(grid) // 7 * 7  # a 2-D slab, as the dynamics kernel passes
        assert f.eval_array(grid[:k].reshape(-1, 7)).tobytes() == want[:k].tobytes()

    @pytest.mark.parametrize("region", sorted(_DERIVATIVE_REGIONS))
    @pytest.mark.parametrize("table", sorted(PCHIP_TABLES))
    def test_derivative_range_contains_scipy_derivative(self, table, region):
        xs, ys = PCHIP_TABLES[table]
        f = Tabulated(tuple(xs), tuple(ys), "pchip")
        lo, hi = _DERIVATIVE_REGIONS[region](f.xs[0], f.xs[-1])
        d_lo, d_hi = f.derivative_range(lo, hi)
        vals = _pchip_derivative_samples(f, lo, hi)
        assert d_lo <= vals.min() and vals.max() <= d_hi
        if region == "past the samples":
            assert (d_lo, d_hi) == (0.0, 0.0)
        elif region == "one point":
            assert d_lo == d_hi == vals[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_derivative_range_on_the_seeded_scan_tables(self, seed):
        tables = [f for f, _ in _scan_cases(seed) if isinstance(f, Tabulated)]
        assert tables
        for f in tables:
            for lo, hi in ((-math.inf, math.inf), (-2.5, 1.75), (-1.0, -1.0)):
                d_lo, d_hi = f.derivative_range(lo, hi)
                vals = _pchip_derivative_samples(f, lo, hi)
                assert d_lo <= vals.min() and vals.max() <= d_hi, (f, lo, hi)

    @pytest.mark.parametrize(
        "xs", [(0.0, 1.0, 1.0), (0.0, 2.0, 1.0), (0.0, math.nan, 1.0)]
    )
    def test_knots_must_increase(self, xs):
        for rule in ("linear", "pchip"):
            with pytest.raises(ValueError):
                Tabulated(xs, (0.0, 1.0, 2.0), rule)

    def test_non_finite_samples_and_unknown_rule(self):
        for rule in ("linear", "pchip"):
            for ys in ((0.0, math.inf, 2.0), (0.0, math.nan, 2.0)):
                with pytest.raises(ValueError):
                    Tabulated((0.0, 1.0, 2.0), ys, rule)
        with pytest.raises(ValueError):
            Tabulated((0.0, 1.0), (0.0, 1.0), "cubic")


class TestScaledSineDerivativeRange:
    def test_short_windows_contain_every_sample(self):
        # windows shorter than 2 pi hold 0, 1 or 2 crests of the cosine
        rng = np.random.default_rng(11)
        crests = set()
        for _ in range(300):
            amplitude = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
            phase = rng.uniform(-5.0, 5.0)
            lo = rng.uniform(-20.0, 20.0)
            hi = lo + (0.0 if rng.random() < 0.1 else rng.uniform(0.0, 2 * math.pi))
            f = ScaledSine(amplitude, phase)
            d_lo, d_hi = f.derivative_range(lo, hi)
            samples = [amplitude * math.cos(x + phase) for x in np.linspace(lo, hi, 2001)]
            assert d_lo <= min(samples) and max(samples) <= d_hi, (f, lo, hi)
            # the range is the sampled one up to the grid's curvature error
            assert d_hi - max(samples) <= 1e-5 and min(samples) - d_lo <= 1e-5
            if lo == hi:
                assert d_lo == d_hi == samples[0]
            k = math.ceil((lo + phase) / math.pi)
            crests.add(sum(1 for j in (k, k + 1, k + 2) if j * math.pi <= hi + phase))
        assert crests == {0, 1, 2}


class TestDifferenceQuotientBounds:
    def test_affine_constant_slope(self):
        qb = difference_quotient_bounds(Affine(-0.5, 0.0))
        assert (qb.lo, qb.hi) == (-0.5, -0.5)
        assert qb.lo_attained and qb.hi_attained

    def test_saturation_chords(self):
        qb = difference_quotient_bounds(Saturation(-1.0, 1.0))
        assert (qb.lo, qb.hi) == (0.0, 1.0)
        assert qb.lo_attained and qb.hi_attained

    def test_scaled_sine_dense_grid_oracle(self):
        f = ScaledSine(0.5, 0.0)
        region = IntervalSet.closed(-10.0, 10.0)
        qb = difference_quotient_bounds(f, region)
        xs = np.arange(-10.0, 10.0, 1e-3)
        chords = np.diff(f.eval_array(xs)) / np.diff(xs)
        assert qb.lo <= chords.min() + 1e-6 and qb.hi >= chords.max() - 1e-6
        assert -0.5 - 1e-12 <= qb.lo and qb.hi <= 0.5 + 1e-12

    def test_sine_bounds_not_attained(self):
        qb = difference_quotient_bounds(ScaledSine(1.0, math.pi))
        assert (qb.lo, qb.hi) == (-1.0, 1.0)
        assert not qb.lo_attained and not qb.hi_attained

    def test_exclude_fixed_for_identity_is_vacuous(self):
        assert difference_quotient_bounds(Identity(), exclude_fixed=True) is None

    def test_exclude_fixed_keeps_offset_identity_piece(self):
        # slope-1 middle with nonzero offset is not the identity; the strict
        # off-fixed-set bound must still see slope 1 as attained
        f = PiecewiseLinear(((-1.0, -0.8), (1.0, 1.2)), -0.5, -0.5)
        qb = difference_quotient_bounds(f, exclude_fixed=True)
        assert qb.hi == 1.0 and qb.hi_attained

    def test_pchip_on_the_whole_line(self):
        f = Tabulated((-2.0, -1.0, 1.0, 2.0), (-1.5, -1.0, 1.0, 1.5), "pchip")
        qb = difference_quotient_bounds(f, IntervalSet.reals())
        inner = difference_quotient_bounds(f, IntervalSet.closed(-1.5, 1.5))
        # the flat tails add slope 0; a pchip piece may be linear, so the
        # bounds count as attained
        assert qb.lo == 0.0 and qb.hi == inner.hi and inner.lo > 0.0
        assert qb.lo_attained and qb.hi_attained
        xs = np.linspace(-4.0, 4.0, 80001)
        chords = np.diff(f.eval_array(xs)) / np.diff(xs)
        assert qb.lo <= chords.min() and chords.max() <= qb.hi

    def test_mix_attains_only_where_both_members_attain(self):
        # x + 0.5 on [-1, 1], as PWL and as pchip: a chord there has slope 1
        ts = (-2.0, -1.0, 0.0, 1.0, 2.0)
        pchip = Tabulated(ts, tuple(t + 0.5 for t in ts), "pchip")
        f = Mix(PiecewiseLinear(((-1.0, -0.5), (1.0, 1.5))), pchip, 0.5)
        qb = difference_quotient_bounds(f, exclude_fixed=True)
        assert (qb.lo, qb.hi) == (0.0, 1.0)
        assert qb.lo_attained and qb.hi_attained
        g = Mix(PiecewiseLinear(((-1.0, -0.5), (1.0, 1.5))), ScaledSine(1.0), 0.5)
        qb = difference_quotient_bounds(g)
        assert (qb.lo, qb.hi) == (-0.5, 1.0)
        assert not qb.lo_attained and not qb.hi_attained
        # a zero weight drops its member from the flags too
        qb = difference_quotient_bounds(Mix(ScaledSine(1.0), pchip, 0.0))
        assert qb.hi == 1.0 and qb.hi_attained

    def test_mix_keeps_an_identity_member_off_the_fixed_set(self):
        f = Mix(Identity(), ScaledSine(0.5), 0.5)
        qb = difference_quotient_bounds(f, exclude_fixed=True)
        assert (qb.lo, qb.hi) == (0.25, 0.75)

    def test_empty_region_is_none(self):
        assert difference_quotient_bounds(Affine(0.5), IntervalSet.empty()) is None

    @given(
        st.floats(-5, 0),
        st.floats(0.1, 5),
        st.floats(0.5, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_region(self, lo, width, grow):
        f = PiecewiseLinear(
            ((-2.0, 1.0), (-0.5, -0.5), (1.0, 0.5), (3.0, -1.0)), 0.3, -0.6
        )
        small = IntervalSet.closed(lo, lo + width)
        large = IntervalSet.closed(lo - grow, lo + width + grow)
        qs = difference_quotient_bounds(f, small)
        ql = difference_quotient_bounds(f, large)
        assert ql.lo <= qs.lo + 1e-12 and ql.hi >= qs.hi - 1e-12


SPEC = BoxRaySpec(-1.0, 1.0, 0.0, -1.0, -1.0)


class TestSectorMembership:
    def test_affine_contraction_passes(self):
        report = sector_membership(Affine(-0.5, 0.0), SPEC)
        assert report.passed and report.lower.exact

    def test_identity_boundary_case_passes(self):
        report = sector_membership(Identity(), SPEC)
        assert report.lower.passed and report.box.passed and report.upper.passed

    def test_offset_identity_box_violation(self):
        report = sector_membership(Affine(1.0, 0.5), SPEC)
        assert not report.box.passed
        assert report.box.first_violation == pytest.approx(1.0)

    def test_expansion_fails_lower_sector(self):
        report = sector_membership(Affine(-2.0, 0.0), SPEC)
        assert not report.lower.passed and not report.upper.passed

    def test_strict_ray_contact_is_violation(self):
        # f coincides with L1 on the whole lower region: strict bound fails
        report = sector_membership(Affine(-1.0, 0.0), SPEC)
        assert not report.lower.passed

    def test_sampled_variant_reports_inexact(self):
        report = sector_membership(
            Tabulated((-2.0, -1.0, 1.0, 2.0), (-1.5, -1.0, 1.0, 1.5), "pchip"),
            SPEC,
        )
        assert not report.lower.exact

    def test_box_pass_implies_range_invariance(self):
        for f in CATALOG:
            if isinstance(f, GatedIdentity):
                continue
            report = sector_membership(f, SPEC)
            if report.box.passed:
                xs = np.linspace(-1.0, 1.0, 501)
                vals = f.eval_array(xs)
                assert vals.min() >= -1.0 - 1e-9 and vals.max() <= 1.0 + 1e-9

    def test_degenerate_box_spec(self):
        spec = BoxRaySpec(0.0, 0.0, 0.0, -1.0, -0.8)
        report = sector_membership(ScaledSine(0.8, math.pi), spec)
        assert report.passed

    def test_tail_beyond_any_sampling_horizon_fails(self):
        # the tails (slope -1.1) cross the rays (slope -1) only beyond
        # |x| ~ 20; the ratio's limit at each tail is the tail slope
        f = PiecewiseLinear(((-1.0, -1.0), (1.0, 1.0)), -1.1, -1.1)
        report = sector_membership(f, BoxRaySpec(-1.0, 1.0, -0.5, -1.0, -1.0))
        assert report.box.passed
        assert not report.lower.passed and report.lower.first_violation == -math.inf
        assert not report.upper.passed and report.upper.first_violation == math.inf

    def test_ratio_range_limits_and_attainment(self):
        f = PiecewiseLinear(((-1.0, -1.0), (1.0, 1.0)), -1.1, 0.5)
        lo = ratio_range(f, -1.0, 1.0, -0.5, "lower")
        assert (lo.inf, lo.inf_attained, lo.inf_at) == (-1.1, False, -math.inf)
        assert lo.sup == pytest.approx(1.0) and lo.exact
        # the piece through (anchor, anchor) has a constant, attained ratio
        up = ratio_range(f, 1.0, 1.0, 1.0, "upper")
        assert (up.inf, up.inf_attained, up.sup) == (0.5, True, 0.5)
        # the edge is the anchor and f(anchor) > anchor: r -> -inf from below
        g = Affine(1.0, 0.5)
        assert ratio_range(g, 0.0, 0.0, 0.0, "lower").inf == -math.inf
        with pytest.raises(ValueError):
            ratio_range(g, 0.0, 0.0, 0.0, "left")

    @given(
        xs=st.lists(st.integers(-300, 300), min_size=2, max_size=5, unique=True),
        ys=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
        tails=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        box=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        u=st.floats(0.0, 1.0),
        slopes=st.tuples(st.floats(-4.0, -0.25), st.floats(-4.0, -0.25)),
    )
    @settings(max_examples=300, deadline=None)
    def test_pwl_pass_holds_on_the_whole_half_line(self, xs, ys, tails, box, u, slopes):
        knots = tuple((x / 100.0, y) for x, y in zip(sorted(xs), ys))
        f = PiecewiseLinear(knots, *tails)
        box_lo, box_hi = sorted(box)
        anchor = min(box_lo + u * (box_hi - box_lo), box_hi)
        spec = BoxRaySpec(box_lo, box_hi, anchor, *slopes)
        report = sector_membership(f, spec)
        kx = np.array([k[0] for k in knots])
        if report.lower.passed:
            grid = np.linspace(anchor - 1e3, box_lo, 20001)[:-1]
            x = np.concatenate([kx[kx < box_lo], grid])
            fx = f.eval_array(x)
            assert np.all(x - fx <= 1e-9)
            assert np.all(fx - (spec.k1 * (x - anchor) + anchor) < 1e-9)
        if report.upper.passed:
            grid = np.linspace(anchor + 1e3, box_hi, 20001)[:-1]
            x = np.concatenate([kx[kx > box_hi], grid])
            fx = f.eval_array(x)
            assert np.all(fx - x <= 1e-9)
            assert np.all(spec.k2 * (x - anchor) + anchor - fx < 1e-9)


def _old_box_self_mapped(f, lo, hi):
    """The box-range check as it stood before ``box_violation``: the range of
    a piecewise-linear form from scalar evaluation at the box ends and the
    knots inside (the ``range_over`` of that form, on a finite box), else
    the range of ``BOX_SAMPLES`` samples. Kept as the oracle for the
    decision of ``box_violation``."""
    rep = f.pwl()
    if rep is not None:
        pts = [lo, hi] + [x for x in rep.xs if lo < x < hi]
        vals = [rep.evaluate(p) for p in pts]
        f_lo, f_hi = min(vals), max(vals)
    else:
        xs = np.linspace(lo, hi, constraints.BOX_SAMPLES)
        vals = f.eval_array(xs)
        f_lo, f_hi = float(vals.min()), float(vals.max())
    return not (f_lo < lo - 1e-12 or f_hi > hi + 1e-12)


def _first_outside(f, lo, hi):
    """The smallest candidate point of the box check (box ends and inner
    knots, or the samples) whose scalar value leaves the box."""
    rep = f.pwl()
    if rep is not None:
        pts = sorted({lo, hi} | {x for x in rep.xs if lo < x < hi})
    else:
        pts = np.linspace(lo, hi, constraints.BOX_SAMPLES).tolist()
    m = constraints.STRICT_MARGIN
    return next((x for x in pts if not lo - m <= f.evaluate(x) <= hi + m), None)


# the ROADMAP's pchip reproduction: clip(x/2, -1, 1) with a dip to -5 at
# x = -3.05, so x <= f(x) fails on about (-3.0549, -3.0451)
DIP = Tabulated(
    (-6, -5, -4, -3.2, -3.06, -3.05, -3.04, -2.9, -2, -1, 0, 1, 2, 3, 4, 5, 6),
    (-1, -1, -1, -1, -1, -5, -1, -1, -1, -0.5, 0, 0.5, 1, 1, 1, 1, 1),
    "pchip",
)


class TestBoxViolation:
    def test_matches_the_old_check_on_every_knot_box(self):
        from tcconsensus.scenarios import builtin_scenarios

        fns = {*CATALOG, DIP, PiecewiseLinear(((-1.0, -1.0), (1.0, 1.0)), 0.0, -1.5)}
        fns |= {f for sc in builtin_scenarios() for _, f in sc.system.distinct}
        pts = {-3.0549084956516124, -3.05, -2e-8, 2e-8, math.pi, -math.e, 0.25}
        for f in fns:
            rep = f.pwl()
            pts |= set(rep.xs if rep is not None else getattr(f, "xs", ()))
        pts = sorted(pts)
        pairs = failed = 0
        for f in sorted(fns, key=repr):
            for i, lo in enumerate(pts):
                for hi in pts[i:]:
                    got = constraints.box_violation(f, lo, hi)
                    assert (got is None) == _old_box_self_mapped(f, lo, hi), (f, lo, hi)
                    assert got == _first_outside(f, lo, hi), (f, lo, hi)
                    pairs += 1
                    failed += got is not None
        assert pairs > 5000 and 0 < failed < pairs

    def test_sampled_witness_is_the_first_sample_outside(self):
        # 2 sin(x) leaves [0, 1.2] on the whole of (asin(0.6), 1.2]
        got = constraints.box_violation(ScaledSine(2.0), 0.0, 1.2)
        xs = np.linspace(0.0, 1.2, constraints.BOX_SAMPLES)
        assert got == xs[xs > math.asin(0.6)][0]
        # -sin(x) maps [-0.5, 0.5] and {0} into themselves
        assert constraints.box_violation(ScaledSine(1.0, math.pi), -0.5, 0.5) is None
        assert constraints.box_violation(ScaledSine(1.0, math.pi), 0.0, 0.0) is None

    def test_pwl_box_check_is_exact_between_samples(self):
        # a spike 1e-6 wide above the box, between any two of 2001 samples
        f = PiecewiseLinear(((0.1, 0.0), (0.1000005, 2.0), (0.100001, 0.0)))
        assert constraints.box_violation(f, -1.0, 1.0) == 0.1000005


class TestSerialization:
    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.variant)
    def test_round_trip(self, f):
        rec = f.to_dict()
        json.dumps(rec)  # must be JSON-serializable as-is
        back = from_dict(rec)
        assert back == f

    @pytest.mark.parametrize(
        "f",
        [
            *(f for f in CATALOG if f.pwl() is not None),
            Affine(2, 1),  # integer tails stay integers
            Saturation(0.5, 0.5),
            IntervalProjection(1.0, 1.0, 0.25),
            Mix(Identity(), Tabulated((-1.0, 0.0, 3.0), (1.0, 0.0, 1.0)), 0.3),
        ],
        ids=lambda f: f.variant,
    )
    def test_pwl_form_is_exact_and_a_record(self, f):
        form = f.pwl()
        assert type(form) is PiecewiseLinear
        assert form.pwl() is form
        assert from_dict(form.to_dict()) == form
        assert from_dict(json.loads(json.dumps(form.to_dict()))) == form
        xs = np.array(form.xs)
        grid = np.concatenate(
            (
                xs,
                np.nextafter(xs, -np.inf),
                np.nextafter(xs, np.inf),
                np.linspace(xs[0] - 3.0, xs[-1] + 3.0, 1001),
                [0.0, -0.0, 1e300, -1e300],
            )
        )
        assert form.eval_array(grid).tobytes() == f.eval_array(grid).tobytes()

    def test_a_form_holds_no_reference_to_itself(self):
        g = PiecewiseLinear(((-1.0, -1.0), (1.0, 1.0)), 0.0, -1.5)
        assert g.pwl() is g
        # fill every cache the analysis reads
        fixed_point_set(g)
        difference_quotient_bounds(g)
        g.eval_array([0.0])
        ref = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert ref() is None  # freed by refcount, with no cycle to collect
        finally:
            gc.enable()

    def test_unknown_variant(self):
        with pytest.raises(UnknownConstraintVariantError):
            from_dict({"variant": "warp-drive"})

    def test_nested_mix(self):
        f = Mix(Mix(Affine(0.5), Identity()), Saturation(-1, 1), 0.3)
        assert from_dict(f.to_dict()) == f

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"variant": "tabulated", "xs": 3, "ys": [0, 1]}, "tabulated xs must be a list"),
            ({"variant": "piecewise_linear", "knots": [1, 2]}, "knots must be a list of"),
            ({"variant": "tabulated", "xs": [0, 1], "ys": [[0], [1]]}, "tabulated ys"),
            ({"variant": "piecewise_linear", "knots": [[0, 1, 2]]}, "knots must be a list of"),
            ({"variant": "affine", "k": [0.5]}, "affine k must be a number"),
            ({"variant": "mix", "first": 3, "second": {"variant": "identity"}}, "mix first"),
            ({"variant": "affine", "k": 10**400}, "affine k out of range"),
            ({"variant": "tabulated", "xs": [0, 1], "ys": [0, -(10**400)]}, "tabulated ys out"),
        ],
    )
    def test_malformed_parameters_name_the_field(self, record, message):
        with pytest.raises(ValidationError, match=message):
            from_dict(record)

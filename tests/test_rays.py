import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcconsensus import (
    BoxRaySpec,
    EquilibriumRaySpec,
    distance_to_box,
    lyapunov_V,
    lyapunov_Y,
)
from tcconsensus.errors import DimensionMismatchError
from tcconsensus.rays import Y_TERMS


class TestBoxRaySpec:
    def test_rays_pass_through_anchor(self):
        spec = BoxRaySpec(-1.0, 1.0, 0.25, -0.5, -2.0)
        assert spec.l1(0.25) == spec.l2(0.25) == 0.25

    def test_anchor_must_lie_in_box(self):
        with pytest.raises(ValueError):
            BoxRaySpec(-1.0, 1.0, 2.0, -1.0, -1.0)

    def test_slope_product(self):
        assert BoxRaySpec(-1, 1, 0, -0.8, -0.8).slope_product == pytest.approx(0.64)


class TestEquilibriumRaySpec:
    def test_valid(self):
        spec = EquilibriumRaySpec(-0.5, -2.0)
        assert spec.k_e1 * spec.k_e2 == pytest.approx(1.0)

    def test_positive_slope_rejected(self):
        with pytest.raises(ValueError):
            EquilibriumRaySpec(0.5, 2.0)

    def test_product_must_be_one(self):
        with pytest.raises(ValueError):
            EquilibriumRaySpec(-0.5, -0.5)


class TestLyapunovY:
    def test_five_term_example(self):
        spec = BoxRaySpec(-1.0, 1.0, 0.0, -0.8, -0.8)
        y, term = lyapunov_Y([3.0, -0.5], spec)
        # independent oracle: evaluate the five terms by hand
        terms = [2.0, 3.0 - (-1.0), 1.0 - (-0.5), 1.8 * 3.0, 1.8 * 0.5]
        assert y == pytest.approx(max(terms)) == pytest.approx(5.4)
        assert term == "right_ray"

    def test_inside_box_is_diameter(self):
        spec = BoxRaySpec(-1.0, 1.0, 0.0, -1.0, -1.0)
        y, term = lyapunov_Y([0.2, -0.3, 0.9], spec)
        assert y == 2.0 and term == "box"

    def test_degenerate_zero(self):
        spec = BoxRaySpec(0.0, 0.0, 0.0, -1.0, -1.0)
        y, term = lyapunov_Y([0.0, 0.0], spec)
        assert y == 0.0 and term == "box"

    def test_tie_prefers_box_term(self):
        # state exactly filling the box: x_M - box_lo ties the diameter
        spec = BoxRaySpec(-1.0, 1.0, 0.0, -0.1, -0.1)
        _, term = lyapunov_Y([-1.0, 1.0], spec)
        assert term == "box"

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
        st.floats(-2, 0),
        st.floats(0, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_never_below_diameter(self, state, lo, hi):
        spec = BoxRaySpec(lo, hi, 0.5 * (lo + hi), -1.0, -1.0)
        y, _ = lyapunov_Y(state, spec)
        assert y >= hi - lo - 1e-12

    def test_max_of_five_oracle(self):
        rng = np.random.default_rng(7)
        spec = BoxRaySpec(-1.5, 2.0, 0.5, -0.25, -3.0)
        for _ in range(50):
            x = rng.uniform(-8, 8, size=4)
            x_m, x_M = x.min(), x.max()
            oracle = max(
                spec.box_hi - spec.box_lo,
                x_M - spec.box_lo,
                spec.box_hi - x_m,
                (1 - spec.k2) * (x_M - spec.anchor),
                (1 - spec.k1) * (spec.anchor - x_m),
            )
            assert lyapunov_Y(x, spec)[0] == pytest.approx(oracle)


class TestLyapunovV:
    def test_two_coordinate_example(self):
        spec = EquilibriumRaySpec(-0.5, -2.0)
        v = lyapunov_V([1.0, -2.0], [0.0, 0.0], spec)
        # per-coordinate oracle: max{3*1, 1.5*2} = 3
        assert v == pytest.approx(3.0)

    def test_zero_at_equilibrium(self):
        spec = EquilibriumRaySpec(-1.0, -1.0)
        assert lyapunov_V([0.3, -0.7], [0.3, -0.7], spec) == 0.0

    def test_symmetric_example(self):
        spec = EquilibriumRaySpec(-1.0, -1.0)
        assert lyapunov_V([0.5, -0.5], [0.0, 0.0], spec) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lyapunov_V([1.0, 2.0], [0.0], EquilibriumRaySpec(-1.0, -1.0))

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=5),
        st.floats(0.1, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_positively_homogeneous_in_error(self, eps, c):
        spec = EquilibriumRaySpec(-0.5, -2.0)
        e = np.linspace(-1, 1, len(eps))
        eps = np.asarray(eps)
        v1 = lyapunov_V(e + eps, e, spec)
        vc = lyapunov_V(e + c * eps, e, spec)
        assert vc == pytest.approx(c * v1, rel=1e-9, abs=1e-9)

    def test_zero_only_at_equilibrium(self):
        spec = EquilibriumRaySpec(-0.5, -2.0)
        assert lyapunov_V([1e-9, 0.0], [0.0, 0.0], spec) > 0


class TestDistanceToBox:
    def test_single_excess(self):
        assert distance_to_box([2.0, 0.5], -1.0, 1.0) == pytest.approx(1.0)

    def test_inside(self):
        assert distance_to_box([0.0, -1.0, 1.0], -1.0, 1.0) == 0.0

    def test_two_sided_excess(self):
        assert distance_to_box([2.0, -2.0], -1.0, 1.0) == pytest.approx(math.sqrt(2))

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            distance_to_box([0.0], 1.0, -1.0)

    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_matches_projection_oracle(self, state):
        x = np.asarray(state)
        proj = np.clip(x, -1.0, 1.0)
        assert distance_to_box(x, -1.0, 1.0) == pytest.approx(
            float(np.linalg.norm(x - proj))
        )


# Per-state oracles: the scalar formulas written out in plain Python, one
# state at a time, with the box term winning ties by its position.
def oracle_Y(state, spec):
    x_m, x_M = float(min(state)), float(max(state))
    terms = (
        spec.box_hi - spec.box_lo,
        x_M - spec.box_lo,
        spec.box_hi - x_m,
        (1.0 - spec.k2) * (x_M - spec.anchor),
        (1.0 - spec.k1) * (spec.anchor - x_m),
    )
    best = max(range(5), key=lambda i: (terms[i], -i))
    return terms[best], best


def oracle_V(state, equilibrium, spec):
    return max(
        max((1.0 - spec.k_e1) * -(x - e), (1.0 - spec.k_e2) * (x - e))
        for x, e in zip(state, equilibrium)
    )


def oracle_dist(state, lo, hi):
    excess = np.maximum(lo - state, 0.0) + np.maximum(state - hi, 0.0)
    return math.sqrt(float((excess**2).sum()))


STACK_SPEC = BoxRaySpec(-1.5, 2.0, 0.5, -0.25, -3.0)


def seeded_stack(n, seed=11, samples=40):
    rng = np.random.default_rng(seed + n)
    return rng.uniform(-8.0, 8.0, size=(samples, n))


class TestStacks:
    @pytest.mark.parametrize("n", [2, 5, 9, 17, 64])
    def test_channels_equal_per_state_oracle(self, n):
        X = seeded_stack(n)
        eq = np.linspace(-1.0, 1.0, n)
        eq_spec = EquilibriumRaySpec(-0.5, -2.0)
        ys, names = lyapunov_Y(X, STACK_SPEC)
        vs = lyapunov_V(X, eq, eq_spec)
        ds = distance_to_box(X, STACK_SPEC.box_lo, STACK_SPEC.box_hi)
        assert ys.shape == vs.shape == ds.shape == names.shape == (len(X),)
        for k, x in enumerate(X):
            y, best = oracle_Y(x, STACK_SPEC)
            assert (ys[k], names[k]) == (y, Y_TERMS[best])
            assert vs[k] == oracle_V(x, eq, eq_spec)
            assert ds[k] == oracle_dist(x, STACK_SPEC.box_lo, STACK_SPEC.box_hi)

    @pytest.mark.parametrize("n", [2, 5, 9, 17, 64])
    def test_single_state_keeps_scalar_types(self, n):
        x = seeded_stack(n)[0]
        y, term = lyapunov_Y(x, STACK_SPEC)
        v = lyapunov_V(x, np.zeros(n), EquilibriumRaySpec(-1.0, -1.0))
        d = distance_to_box(x, -1.0, 1.0)
        assert type(y) is float and type(term) is str
        assert type(v) is float and type(d) is float
        value, best = oracle_Y(x, STACK_SPEC)
        assert (y, term) == (value, Y_TERMS[best])

    def test_exact_ties_resolve_to_the_earliest_term(self):
        # [-1, 1] filled exactly with unit slopes: all five terms equal 2;
        # (-3, 3) with slopes +0.5: xM_minus_lo ties hi_minus_xm at 4
        ties = BoxRaySpec(-1.0, 1.0, 0.0, -1.0, -1.0)
        inner = BoxRaySpec(-1.0, 1.0, 0.0, 0.5, 0.5)
        X = np.array([[-1.0, 0.0, 1.0] * 3, [-3.0, 0.0, 3.0] * 3])
        ys, names = lyapunov_Y(X, ties)
        assert names[0] == "box" and ys[0] == 2.0
        _, names = lyapunov_Y(X, inner)
        assert names[1] == "xM_minus_lo"
        for spec in (ties, inner):
            got = lyapunov_Y(X, spec)[1]
            assert list(got) == [Y_TERMS[oracle_Y(x, spec)[1]] for x in X]

    def test_leading_axes_are_kept(self):
        X = seeded_stack(5).reshape(4, 10, 5)
        ys, names = lyapunov_Y(X, STACK_SPEC)
        assert ys.shape == names.shape == (4, 10)
        assert ys[2, 3] == lyapunov_Y(X[2, 3], STACK_SPEC)[0]

    def test_stack_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lyapunov_V(np.zeros((3, 2)), [0.0], EquilibriumRaySpec(-1.0, -1.0))

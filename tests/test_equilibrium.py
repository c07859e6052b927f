import math

import numpy as np
import pytest

from tcconsensus import (
    Affine,
    Identity,
    IntegrationSpec,
    PiecewiseLinear,
    Saturation,
    System,
    build_digraph,
    integrate_batch,
    invariant_box,
    residual,
    scenario_by_name,
    seed_stream,
    solve_equilibrium,
    theta_hull,
    uniqueness_probe,
)
from tcconsensus import equilibrium
from tcconsensus.dynamics import integrate, rhs
from tcconsensus.equilibrium import _ladder
from tcconsensus.app import system_from_dict
from tcconsensus.scenarios import builtin_scenarios
from tcconsensus.errors import (
    DimensionMismatchError,
    EmptyFixedPointSetError,
    NoInEdgeAgentError,
    UnconvergedError,
    ValidationError,
)
from test_dynamics import load_netgen


def two_agent(f_01, f_10):
    g = build_digraph([[0.0, 1.0], [1.0, 0.0]])
    return System(g, {(1, 0): f_10, (0, 1): f_01})


def complete_identity(n):
    g = build_digraph(np.ones((n, n)) - np.eye(n))
    return System(g, {e: Identity() for e in g.edges()})


AFFINE_PAIR = two_agent(Affine(-0.5, 1.0), Affine(-0.5, -1.0))


def integrate_briefly(system, state):
    return integrate(system, state, IntegrationSpec(dt=0.01, t_final=0.1))


class TestResidual:
    def test_affine_pair_at_solution(self):
        # linear-system oracle: e0 = -0.5*e1 - 1, e1 = -0.5*e0 + 1 -> (-2, 2)
        assert residual(AFFINE_PAIR, [-2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_identity_consensus_vector(self):
        sys_ = complete_identity(4)
        assert residual(sys_, np.full(4, 3.7)) == 0.0

    def test_consensus_zone_point(self):
        sys_ = scenario_by_name("ex1").system
        assert residual(sys_, np.zeros(sys_.n)) < 1e-12

    def test_positive_away_from_equilibrium(self):
        assert residual(AFFINE_PAIR, [0.0, 0.0]) > 0.5


class TestSolveEquilibrium:
    def test_contraction_to_origin(self):
        sys_ = two_agent(Affine(-0.5, 0.0), Affine(-0.5, 0.0))
        eq = solve_equilibrium(sys_, [5.0, -3.0])
        assert eq.point == pytest.approx([0.0, 0.0], abs=1e-9)
        assert eq.residual < 1e-10
        assert eq.method == "picard"

    def test_affine_pair_matches_linear_oracle(self):
        eq = solve_equilibrium(AFFINE_PAIR, [7.0, 7.0])
        assert eq.point == pytest.approx([-2.0, 2.0], abs=1e-9)

    def test_residual_recomputes(self):
        eq = solve_equilibrium(AFFINE_PAIR, [0.3, -0.4], tol=1e-10)
        assert residual(AFFINE_PAIR, eq.point) <= 1e-10

    def test_all_affine_matches_assembled_linear_system(self):
        rng = np.random.default_rng(11)
        n = 5
        w = np.ones((n, n)) - np.eye(n)
        g = build_digraph(w)
        slopes = rng.uniform(-0.8, 0.8, size=(n, n))
        offsets = rng.uniform(-1, 1, size=(n, n))
        constraints = {
            (j, i): Affine(float(slopes[i, j]), float(offsets[i, j]))
            for (j, i) in g.edges()
        }
        sys_ = System(g, constraints)
        # oracle: e_i = (1/alpha_i) sum_j a_ij (k_ij e_j + m_ij)
        A_f = w * slopes
        b = (w * offsets).sum(axis=1)
        D = np.diag(w.sum(axis=1))
        oracle = np.linalg.solve(np.eye(n) - np.linalg.inv(D) @ A_f,
                                 np.linalg.inv(D) @ b)
        eq = solve_equilibrium(sys_, np.zeros(n), tol=1e-12)
        assert eq.point == pytest.approx(oracle, abs=1e-9)

    def test_no_in_edge_agent(self):
        g = build_digraph([[0.0, 1.0], [0.0, 0.0]])
        sys_ = System(g, {(1, 0): Identity()})
        with pytest.raises(NoInEdgeAgentError):
            solve_equilibrium(sys_, [0.0, 0.0])

    def test_unconverged_reports_best_point(self, monkeypatch):
        # both edges shift by +1: the mean drifts and no equilibrium exists
        monkeypatch.setattr(equilibrium, "_BUDGET", 50)
        sys_ = two_agent(Affine(1.0, 1.0), Affine(1.0, 1.0))
        with pytest.raises(UnconvergedError) as exc:
            solve_equilibrium(sys_, [0.0, 0.0])
        assert np.all(np.isfinite(exc.value.best))
        assert exc.value.residual > 0

    def test_a_system_without_agents_is_refused_before_iterating(self):
        # refused where it is built, so no solver ever sees one
        with pytest.raises(ValidationError, match="at least one agent"):
            System(build_digraph(np.zeros((0, 0))), {})

    @pytest.mark.parametrize(
        "tol",
        [float("nan"), -1.0, True, 10**400],
        ids=["nan", "negative", "bool", "beyond-the-float-range"],
    )
    def test_bad_tol_raises_before_iterating(self, tol, monkeypatch):
        # no kernel may be prepared before the tolerance is checked
        def prepare(*args, **kwargs):
            raise AssertionError("the ladder iterated")

        monkeypatch.setattr(equilibrium, "_prepare", prepare)
        pair = two_agent(Affine(0.5), Affine(0.5))
        with pytest.raises(ValueError, match="tol"):
            solve_equilibrium(pair, [0.0, 0.0], tol=tol)
        with pytest.raises(ValueError, match="tol"):
            uniqueness_probe(pair, (-1.0, 1.0), 2, tol=tol)

    @pytest.mark.parametrize(
        "call, state",
        [
            (solve_equilibrium, [0.0]),
            (solve_equilibrium, [0.0, 0.0, 0.0]),
            (solve_equilibrium, [[0.0, 0.0]]),
            (residual, [0.0]),
            (rhs, [0.0]),
            (integrate_briefly, [0.0]),
            (integrate_briefly, [[0.0, 0.0]]),
        ],
    )
    def test_wrong_shape_state_names_the_expected_shape(self, call, state):
        with pytest.raises(DimensionMismatchError, match=r"shape \(2,\)"):
            call(AFFINE_PAIR, state)


# iterations of solve_equilibrium from each scenario's sampled x0 at seeds 0
# and 7; every one of these converges on the undamped rung
PINNED_SOLVES = {
    "interval": (184, 192),
    "ex3": (16, 24),
    "ex1": (32, 32),
    "ex2": (24, 24),
    "ex4": (24, 24),
    "discarded": (24, 24),
    "bipartite": (24, 24),
    "necessity-2agent": (8, 8),
}


class TestLadder:
    @pytest.mark.parametrize("name", sorted(PINNED_SOLVES))
    def test_pinned_rung_and_iterations(self, name):
        sc = scenario_by_name(name)
        for seed, iterations in zip((0, 7), PINNED_SOLVES[name]):
            eq = solve_equilibrium(sc.system, sc.sample_x0(seed)[0])
            assert (eq.method, eq.iterations) == ("picard", iterations)

    @pytest.mark.parametrize(
        "name, seed_point, stall, iterations",
        [
            ("sine", None, "stalled at 456 (residual ratio 0.93)", 56),
            ("necessity-2agent", [0.5, 2.5], "stalled at 64 (residual ratio 1.00)", 8),
        ],
    )
    def test_nonexpansive_map_stalls_onto_the_damped_rung(
        self, name, seed_point, stall, iterations
    ):
        # sine's map has an eigenvalue -1 at the origin; the 2-agent pair's
        # map swaps the agents, so its undamped residual never moves
        sc = scenario_by_name(name)
        x0 = sc.sample_x0(0)[0] if seed_point is None else np.array(seed_point)
        eq = solve_equilibrium(sc.system, x0)
        assert eq.method == f"picard: {stall};damped-0.5"
        assert eq.iterations == iterations
        assert eq.residual <= 1e-10

    def test_steady_drift_keeps_its_rung(self):
        # f(y) = y + 1 below 0, then 1: from (-1000, -1000) the undamped map
        # moves both agents up by 1 per iteration with a flat residual; the
        # rung is moving, not stalled, and reaches (1, 1)
        f = PiecewiseLinear(knots=((0, 1), (1, 1)), left_slope=1)
        eq = solve_equilibrium(two_agent(f, f), [-1000.0, -1000.0])
        assert (eq.method, eq.iterations) == ("picard", 1008)
        assert eq.point.tolist() == [1.0, 1.0]

    def test_slow_steady_contraction_keeps_its_rung(self):
        # slope 0.995 on both edges: the residual falls by 0.995 per
        # iteration, 0.73 per 64, so it fails to halve at every check but
        # reaches tol well inside the budget
        sys_ = two_agent(Affine(0.995, 0.0), Affine(0.995, 0.0))
        eq = solve_equilibrium(sys_, [1.0, -0.5])
        assert (eq.method, eq.iterations) == ("picard", 4680)

    @pytest.mark.parametrize("name", ["ex3", "ex4", "interval", "sine", "bipartite"])
    def test_probe_outcomes_match_their_own_solves(self, name):
        sys_ = scenario_by_name(name).system
        report = uniqueness_probe(sys_, (-3.0, 3.0), 6, tol=1e-8, seed=5)
        for outcome in report.outcomes:
            alone = solve_equilibrium(sys_, outcome.seed_point, tol=1e-8)
            eq = outcome.equilibrium
            assert (eq.method, eq.iterations) == (alone.method, alone.iterations)
            assert np.abs(eq.point - alone.point).max() <= 1e-12

    def test_wide_probe_outcomes_match_their_own_solves_bit_for_bit(self):
        # a wide table's gather-sum gives each state the same bits in any
        # batch, where the dense product may round them differently
        sys_ = system_from_dict(load_netgen().wide_network(1, 200))
        assert sys_._block is None
        report = uniqueness_probe(sys_, (-3.0, 3.0), 3, tol=1e-8, seed=5)
        for outcome in report.outcomes:
            alone = solve_equilibrium(sys_, outcome.seed_point, tol=1e-8)
            eq = outcome.equilibrium
            assert (eq.method, eq.iterations) == (alone.method, alone.iterations)
            assert eq.point.tobytes() == alone.point.tobytes()

    def test_diverging_rows_leave_the_batch(self):
        # slope -8 on both edges: the map's consensus mode has eigenvalue -8,
        # which every rung diverges or stalls on, while the dynamics contract
        # it; the other mode (eigenvalue 8) diverges under the dynamics too
        sys_ = two_agent(Affine(-8.0, 0.0), Affine(-8.0, 0.0))
        tail, lost = _ladder(sys_, np.array([[1.0, 1.0], [1.0, -0.5]]), 1e-10)
        rungs = [note.split(":")[0] for note in tail.method.split(";")]
        assert rungs == ["picard", "damped-0.5", "damped-0.25", "integration-tail"]
        assert tail.method.startswith("picard: diverged;damped-0.5: diverged;")
        assert np.abs(tail.point).max() <= 1e-10
        assert isinstance(lost, UnconvergedError)
        assert lost.best.tolist() == [1.0, -0.5] and lost.residual == 7.5
        alone = solve_equilibrium(sys_, [1.0, 1.0])
        assert (alone.method, alone.iterations) == (tail.method, tail.iterations)
        assert np.abs(alone.point - tail.point).max() <= 1e-12

    def test_rows_leaving_mid_rung_keep_the_others_stall_test(self):
        # the origin converges on the undamped rung at its first check after
        # 0, while the sampled start stalls there at 456 and converges on the
        # damped rung: dropping the origin's row from the batch and from the
        # check history must not move the other row's stall test
        sc = scenario_by_name("sine")
        seeds = np.array([np.zeros(sc.system.n), sc.sample_x0(0)[0]])
        origin, sampled = _ladder(sc.system, seeds, 1e-10)
        assert (origin.method, origin.iterations) == ("picard", 8)
        stall = "picard: stalled at 456 (residual ratio 0.93)"
        assert sampled.method == f"{stall};damped-0.5"
        assert sampled.iterations == 56
        for eq, seed in zip((origin, sampled), seeds):
            alone = solve_equilibrium(sc.system, seed)
            assert (eq.method, eq.iterations) == (alone.method, alone.iterations)
            assert np.abs(eq.point - alone.point).max() <= 1e-12

    @pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
    def test_points_do_not_depend_on_the_in_degree_shape(self, name, monkeypatch):
        # an ungated system's kernel prepared for one state returns its
        # in-degree with shape (1, n); the ladder's kernel tiles it to the
        # batch; broadcast to the batch's shape, as the kernel returned it
        # before, it must give the same outcomes bit for bit. The batches
        # here make the same gather and bin choices at any size from one
        sc = scenario_by_name(name)
        seeds = np.vstack((sc.sample_x0(0, count=2), np.zeros((1, sc.system.n))))

        def outcomes():
            return [
                (eq.method, eq.iterations, eq.point.tobytes(), eq.residual)
                if isinstance(eq, equilibrium.Equilibrium)
                else (str(eq), eq.best.tobytes(), eq.residual)
                for eq in _ladder(sc.system, seeds, 1e-10)
            ]

        tiled = outcomes()
        prepare = equilibrium._prepare

        def untiled(system, m):
            return prepare(system, 1)

        def full_shape(system, m):
            kernel = prepare(system, 1)

            def sums(E):
                num, den = kernel(E)
                return num, np.broadcast_to(den, E.shape).copy()

            return sums

        for patch in (untiled, full_shape):
            monkeypatch.setattr(equilibrium, "_prepare", patch)
            assert outcomes() == tiled

    def test_every_kernel_call_goes_through_the_seam(self, monkeypatch):
        # the ladder prepares its kernel through ``equilibrium._prepare`` for
        # the starts on a rung, and again when some leave it, and iterates
        # only with it
        prepared, calls = [], []
        prepare = equilibrium._prepare

        def counting(system, m):
            kernel = prepare(system, m)
            prepared.append(m)

            def sums(E):
                assert len(E) == m
                calls.append(m)
                return kernel(E)

            return sums

        monkeypatch.setattr(equilibrium, "_prepare", counting)
        eq = solve_equilibrium(AFFINE_PAIR, [-2.0, 2.0])
        assert (eq.method, eq.iterations) == ("picard", 8)
        assert calls == [1] * 9 and prepared == [1]
        prepared.clear()
        calls.clear()
        # three of interval's five starts converge at one check, one more
        # at a later one
        report = uniqueness_probe(scenario_by_name("interval").system, (-3.0, 3.0), 5)
        assert all(o.equilibrium is not None for o in report.outcomes)
        assert prepared == [5, 2, 1] and set(calls) == {5, 2, 1}

    def test_seed_at_an_equilibrium_still_iterates_to_the_first_check(self):
        eq = solve_equilibrium(AFFINE_PAIR, [-2.0, 2.0])
        assert (eq.method, eq.iterations) == ("picard", 8)


_MASK = (1 << 64) - 1


def _splitmix64(index: int) -> float:
    z = (index * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z = z ^ (z >> 31)
    return (z >> 11) / float(1 << 53)


def scalar_seed_stream(seed, count, n, lo, hi):
    """The per-element splitmix counter stream in Python integers."""
    base = (seed * 0x2545F4914F6CDD1D + 0x632BE59BD9B4E019) & _MASK
    out = np.empty((count, n))
    for c in range(count):
        for k in range(n):
            out[c, k] = lo + (hi - lo) * _splitmix64((base + c * n + k) & _MASK)
    return out


class TestSeedStream:
    @pytest.mark.parametrize(
        "seed, count, n, lo, hi",
        [
            (0, 3, 200, -1.0, 1.0),
            (7, 50, 5, -5.0, 5.0),
            (-1, 4, 3, 2.0, 5.0),
            (-123456789, 7, 11, -3.0, 3.0),
            (2**70 + 3, 2, 9, 0.0, 1.0),
            (42, 1, 1, -5, 5),
            (5, 0, 4, -1.0, 1.0),
        ],
    )
    def test_matches_the_scalar_stream_bit_for_bit(self, seed, count, n, lo, hi):
        got = seed_stream(seed, count, n, lo, hi)
        assert got.shape == (count, n) and got.dtype == np.float64
        assert got.tobytes() == scalar_seed_stream(seed, count, n, lo, hi).tobytes()

    def test_deterministic(self):
        a = seed_stream(42, 5, 3, -1.0, 1.0)
        b = seed_stream(42, 5, 3, -1.0, 1.0)
        assert a.tobytes() == b.tobytes()

    def test_seed_sensitivity(self):
        a = seed_stream(42, 5, 3, -1.0, 1.0)
        b = seed_stream(43, 5, 3, -1.0, 1.0)
        assert not np.allclose(a, b)

    def test_shape_and_bounds(self):
        pts = seed_stream(0, 20, 4, 2.0, 5.0)
        assert pts.shape == (20, 4)
        assert pts.min() >= 2.0 and pts.max() <= 5.0

    def test_spread_over_box(self):
        pts = seed_stream(7, 200, 1, 0.0, 1.0)
        assert pts.std() > 0.2


class TestUniquenessProbe:
    def test_needs_two_starts(self):
        with pytest.raises(ValueError):
            uniqueness_probe(AFFINE_PAIR, (-5, 5), 1)

    @pytest.mark.parametrize(
        "args",
        [
            {"n_starts": 2.5},
            {"n_starts": 3.0},
            {"n_starts": True},
            {"seed": 2.5},
            {"seed": "1"},
            {"box": (True, 2)},
            {"box": (2, -1)},
            {"box": ("a", 1)},
            {"box": (0.0, math.inf)},
            {"box": (math.nan, 1.0)},
            {"box": (0, 10**400)},  # beyond the float range
            {"box": (-(10**400), 0)},
            {"box": (0.0, 1.0, 2.0)},
            {"box": 1.0},
        ],
    )
    def test_bad_arguments_raise_before_any_start(self, args, monkeypatch):
        def prepare(*a, **kw):
            raise AssertionError("the ladder iterated")

        monkeypatch.setattr(equilibrium, "_prepare", prepare)
        call = {"box": (-5.0, 5.0), "n_starts": 3, "seed": 0, **args}
        with pytest.raises(ValueError, match="n_starts|seed|box"):
            uniqueness_probe(AFFINE_PAIR, call.pop("box"), **call)

    def test_numpy_integers_and_a_point_box(self):
        a = uniqueness_probe(AFFINE_PAIR, (-5, 5), np.int64(3), seed=np.int64(3))
        b = uniqueness_probe(AFFINE_PAIR, (-5, 5), 3, seed=3)
        assert [o.seed_point.tolist() for o in a.outcomes] == [
            o.seed_point.tolist() for o in b.outcomes
        ]
        point = uniqueness_probe(AFFINE_PAIR, (np.float64(1.0), 1), 2)
        assert all(o.seed_point.tolist() == [1.0, 1.0] for o in point.outcomes)

    def test_unique_equilibrium_single_cluster(self):
        sys_ = scenario_by_name("ex3").system
        report = uniqueness_probe(sys_, (-5.0, 5.0), 10, tol=1e-8)
        assert len(report.clusters) == 1
        rep, members = report.clusters[0]
        assert members == 10
        assert residual(sys_, rep) <= 1e-8

    def test_identity_continuum_many_clusters(self):
        report = uniqueness_probe(complete_identity(3), (-5.0, 5.0), 6)
        assert len(report.clusters) >= 2
        # every solution is a consensus point
        for rep, _ in report.clusters:
            assert np.ptp(rep) < 1e-6

    def test_note_disclaims_proof(self):
        report = uniqueness_probe(AFFINE_PAIR, (-5, 5), 2)
        assert "not a proof" in report.note

    def test_deterministic(self):
        a = uniqueness_probe(AFFINE_PAIR, (-5, 5), 4, seed=3)
        b = uniqueness_probe(AFFINE_PAIR, (-5, 5), 4, seed=3)
        assert len(a.clusters) == len(b.clusters)
        assert a.clusters[0][0] == pytest.approx(b.clusters[0][0])


class TestThetaHull:
    def test_ex2_hull(self):
        assert theta_hull(scenario_by_name("ex2").system) == pytest.approx((-1.0, 1.0))

    def test_point_hull(self):
        sys_ = two_agent(Affine(-0.5, 0.0), Affine(-0.5, 0.0))
        assert theta_hull(sys_) == pytest.approx((0.0, 0.0))

    def test_empty_edge_set_raises(self):
        sys_ = two_agent(Affine(1.0, 0.5), Identity())
        with pytest.raises(EmptyFixedPointSetError):
            theta_hull(sys_)


class TestInvariantBox:
    def test_hull_pm1_slope_floor_half(self):
        # oracle: hull [-1, 1], uniform floor k* = -0.5 -> solve
        # -0.5x + 1.5 = -x giving x = -3, so the box is (-3, 3)
        f = PiecewiseLinear(((-1.0, -1.0), (1.0, 1.0)), -0.5, -0.5)
        box = invariant_box(two_agent(f, f))
        assert box == pytest.approx((-3.0, 3.0))

    def test_degenerate_point_hull(self):
        sys_ = two_agent(Affine(-0.5, 0.0), Affine(-0.5, 0.0))
        assert invariant_box(sys_) == pytest.approx((0.0, 0.0))

    def test_translated_degenerate_hull(self):
        sys_ = two_agent(Affine(-0.5, 1.5), Affine(-0.5, 1.5))
        assert invariant_box(sys_) == pytest.approx((1.0, 1.0))

    def test_ex4_box(self):
        assert invariant_box(scenario_by_name("ex4").system) == pytest.approx(
            (-3.4, 3.4)
        )

    def test_uncertified_floor_returns_none(self):
        sys_ = two_agent(Affine(-2.0, 0.0), Affine(-2.0, 0.0))
        assert invariant_box(sys_) is None

    def test_excess_ceiling_returns_none(self):
        f = PiecewiseLinear(((-1.0, -2.0), (1.0, 2.0)), 0.0, 0.0)
        assert invariant_box(two_agent(f, f)) is None

    def test_nonnegative_floor_falls_back_to_hull(self):
        sat = Saturation(-1.0, 1.0)
        assert invariant_box(two_agent(sat, sat)) == pytest.approx((-1.0, 1.0))

    def test_unbounded_hull_returns_none(self):
        assert invariant_box(complete_identity(3)) is None

    def test_box_is_invariant_under_dynamics(self):
        sys_ = scenario_by_name("ex4").system
        lo, hi = invariant_box(sys_)
        starts = seed_stream(5, 20, sys_.n, lo, hi)
        # pin some coordinates to the boundary
        starts[::2, 0] = hi
        starts[1::2, -1] = lo
        batch = integrate_batch(sys_, starts, IntegrationSpec(1e-3, 2.0))
        slack = 10.0 * 1e-3 * 4.0
        assert batch.states.min() >= lo - slack
        assert batch.states.max() <= hi + slack

    def test_equilibria_lie_inside_box(self):
        sys_ = scenario_by_name("ex4").system
        lo, hi = invariant_box(sys_)
        report = uniqueness_probe(sys_, (lo, hi), 10, tol=1e-8, seed=2)
        for rep, _ in report.clusters:
            assert rep.min() >= lo - 1e-6 and rep.max() <= hi + 1e-6

"""End-to-end acceptance checks over the built-in scenarios.

Each test prints a single pass/fail line naming its criterion before the
assertions run their course, so the terse summary of a full run reads as a
checklist.
"""

import time

import numpy as np
import pytest

from tcconsensus import (
    Affine,
    Identity,
    IntegrationSpec,
    System,
    build_digraph,
    find_admissible_rays,
    fixed_point_set,
    integrate,
    integrate_batch,
    lyapunov_V,
    lyapunov_Y,
    residual,
    scenario_by_name,
    solve_equilibrium,
    invariant_box,
    uniqueness_probe,
)
from tcconsensus.app import config_from_dict, run
from tcconsensus.constraints import BISECTION_FP_TOL
from tcconsensus.intervals import IntervalSet
from tcconsensus.scenarios import (
    F_A,
    F_B,
    F_C,
    F_D,
    F_E,
    builtin_scenarios,
)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {status}: {label}{extra}")
    assert ok, f"criterion {number} failed: {label}{extra}"


def batch_for(name: str, runs: int, seed: int = 0):
    sc = scenario_by_name(name)
    x0 = sc.sample_x0(seed=seed, count=runs)
    return sc, x0, integrate_batch(sc.system, x0, sc.integration)


@pytest.fixture(scope="module")
def ex1_batch():
    wall = time.perf_counter()
    cpu = time.process_time()
    sc, x0, batch = batch_for("ex1", 20)
    return sc, x0, batch, (time.process_time() - cpu, time.perf_counter() - wall)


@pytest.fixture(scope="module")
def ex2_batch():
    sc, x0, batch = batch_for("ex2", 20)
    return sc, x0, batch


def test_criterion_1_irregular_network_converges_to_origin(ex1_batch):
    _, _, batch, (cpu, wall) = ex1_batch
    worst = float(np.abs(batch.states[-1]).max())
    # the budget is asserted on process CPU time: wall clock on a shared
    # single-core host says more about co-tenants than about this code
    ok = worst < 1e-3 and cpu < 30.0
    report(
        1,
        "20 runs of the irregular 5-agent network end at the origin",
        ok,
        f"max |x(T)| = {worst:.3g}, cpu {cpu:.1f}s, wall {wall:.1f}s",
    )


def test_criterion_2_interval_zone_consensus(ex2_batch):
    _, _, batch = ex2_batch
    finals = batch.states[-1]
    spread = float((finals.max(axis=1) - finals.min(axis=1)).max())
    lo, hi = float(finals.min()), float(finals.max())
    ok = spread < 1e-3 and lo > -1.0 - 1e-3 and hi < 1.0 + 1e-3
    report(
        2,
        "20 runs of the interval-zone network agree inside [-1, 1]",
        ok,
        f"max spread {spread:.3g}, values in [{lo:.4f}, {hi:.4f}]",
    )


def test_criterion_3_monitor_Y_non_increasing(ex1_batch, ex2_batch):
    worst_ratio = 0.0
    for sc, _, batch in (ex1_batch[:3], ex2_batch):
        spec = find_admissible_rays(sc.system, hints=sc.ray_hints)
        assert spec is not None
        for r in range(batch.states.shape[1]):
            ys = np.array(
                [lyapunov_Y(s, spec)[0] for s in batch.states[:, r, :]]
            )
            bad = ys[1:] > ys[:-1] * (1.0 + 1e-9) + 1e-12
            worst_ratio = max(worst_ratio, float((ys[1:] - ys[:-1]).max()))
            if bad.any():
                report(3, "monitor Y non-increasing along every trajectory", False,
                       f"{sc.name} run {r}")
                return
    report(
        3,
        "monitor Y non-increasing along every trajectory",
        True,
        f"max adjacent increase {worst_ratio:.3g}",
    )


def test_criterion_4_box_positively_invariant():
    sc = scenario_by_name("ex2")
    from tcconsensus import seed_stream

    x0 = seed_stream(1, 1000, sc.system.n, -1.0, 1.0)
    spec = IntegrationSpec(dt=1e-3, t_final=5.0)
    batch = integrate_batch(sc.system, x0, spec)
    a_bar = 4.0  # complete 5-graph with unit weights
    tol = 10.0 * spec.dt * a_bar
    worst = float(np.maximum(-1.0 - batch.states, batch.states - 1.0).max())
    ok = worst <= tol
    report(
        4,
        "1000 trajectories started inside [-1, 1]^5 never leave it",
        ok,
        f"max excursion {worst:.3g} vs tolerance {tol:.3g}",
    )


def test_criterion_5_unique_stable_equilibrium():
    sc = scenario_by_name("ex3")
    probe = uniqueness_probe(sc.system, (-5.0, 5.0), 50, tol=1e-8, seed=0)
    single = len(probe.clusters) == 1
    rep = probe.clusters[0][0]
    res = residual(sc.system, rep)

    x0 = sc.sample_x0(seed=0, count=50)
    batch = integrate_batch(sc.system, x0, sc.integration)
    finals = batch.states[-1]
    agree = float(np.abs(finals - rep).max()) < 1e-4

    # below the solver tolerance the representative and the true limit are
    # indistinguishable, so monotonicity is only meaningful above it
    v_floor = 1e-8
    v_ok = True
    for r in range(batch.states.shape[1]):
        vs = np.array(
            [lyapunov_V(s, rep, sc.eq_spec) for s in batch.states[:, r, :]]
        )
        bad = (vs[1:] > vs[:-1] * (1.0 + 1e-9) + 1e-12) & (vs[1:] > v_floor)
        if bad.any():
            v_ok = False
            break

    ok = single and res < 1e-8 and agree and v_ok
    report(
        5,
        "50 solves and 50 trajectories agree on one stable equilibrium",
        ok,
        f"clusters {len(probe.clusters)}, residual {res:.2g}, "
        f"V monotone: {v_ok}",
    )


def test_criterion_6_multiple_equilibria_inside_invariant_box():
    sc = scenario_by_name("ex4")
    box = invariant_box(sc.system)
    assert box is not None
    lo, hi = box
    probe = uniqueness_probe(sc.system, (lo, hi), 50, tol=1e-8, seed=0)
    inside = all(
        rep.min() >= lo - 1e-6 and rep.max() <= hi + 1e-6
        for rep, _ in probe.clusters
    )
    ok = len(probe.clusters) >= 2 and inside
    report(
        6,
        "offset slope-one network keeps many equilibria inside its box",
        ok,
        f"{len(probe.clusters)} clusters inside [{lo:g}, {hi:g}]",
    )


def test_criterion_7_pinned_pair_never_reaches_the_box():
    sc = scenario_by_name("necessity-2agent")
    traj = integrate(sc.system, sc.sample_x0()[0], sc.integration)
    from tcconsensus import distance_to_box

    dists = np.array(
        [
            distance_to_box(s, sc.box_spec.box_lo, sc.box_spec.box_hi)
            for s in traj.states
        ]
    )
    # the pair is frozen at (0.5, 1.5): agent 1 sits half a unit above [-1, 1]
    ok = bool((dists >= 0.5 - 1e-6).all())
    report(
        7,
        "pinned 2-agent pair stays half a unit away from the box",
        ok,
        f"min distance {dists.min():.6f}",
    )


def test_criterion_8_sign_flipping_split_never_agrees():
    sc = scenario_by_name("bipartite")
    x0 = sc.sample_x0(seed=0, count=20)
    batch = integrate_batch(sc.system, x0, sc.integration)
    initial = x0.max(axis=1) - x0.min(axis=1)
    final = batch.states[-1].max(axis=1) - batch.states[-1].min(axis=1)
    ok = bool((final >= 0.5 * initial).all())
    report(
        8,
        "20 runs of the sign-flipping split keep at least half their spread",
        ok,
        f"min final/initial spread ratio {(final / initial).min():.3f}",
    )


def test_criterion_9_oracle_equivalences():
    rng = np.random.default_rng(0)

    # (a) identity constraints reduce to the graph Laplacian
    lap_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        w = rng.uniform(0, 2, size=(n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(w, 0.0)
        g = build_digraph(w)
        sys_ = System(g, {e: Identity() for e in g.edges()})
        x = rng.uniform(-5, 5, size=n)
        from tcconsensus import rhs

        if np.abs(rhs(sys_, x) + g.laplacian() @ x).max() > 1e-12:
            lap_ok = False
            break

    # (b) all-affine equilibria match a directly assembled linear solve
    lin_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        w = np.ones((n, n)) - np.eye(n)
        g = build_digraph(w)
        k = rng.uniform(-0.85, 0.85, size=(n, n))
        m = rng.uniform(-1, 1, size=(n, n))
        sys_ = System(
            g,
            {
                (j, i): Affine(float(k[i, j]), float(m[i, j]))
                for (j, i) in g.edges()
            },
        )
        D_inv = np.diag(1.0 / w.sum(axis=1))
        oracle = np.linalg.solve(
            np.eye(n) - D_inv @ (w * k), D_inv @ (w * m).sum(axis=1)
        )
        eq = solve_equilibrium(sys_, np.zeros(n), tol=1e-12)
        if np.abs(eq.point - oracle).max() > 1e-9:
            lin_ok = False
            break

    # (c) certified fixed-point sets agree with a dense sign-change scan
    scan_ok = True
    for f in (F_A, F_B, F_C, F_D, F_E):
        theta = fixed_point_set(f, IntervalSet.closed(-20.0, 20.0))
        xs = np.arange(-20.0, 20.0, 1e-4)
        g = f.eval_array(xs) - xs
        crossings = np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)
        pad = 0.0 if f.pwl() is not None else BISECTION_FP_TOL
        slack = max(pad, 1e-3)
        for idx in crossings:
            if not theta.contains(float(xs[idx]), slack=slack):
                scan_ok = False
        for lo, hi in theta.pieces:
            mid = 0.5 * (lo + hi)
            if abs(f.evaluate(mid) - mid) > max(pad * 2, 1e-8):
                scan_ok = False

    ok = lap_ok and lin_ok and scan_ok
    report(
        9,
        "independent oracles agree",
        ok,
        f"laplacian {lap_ok}, linear solve {lin_ok}, sign scan {scan_ok}",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    # shortened horizon: determinism is a property of the pipeline, not of
    # the full-length integration, and the long runs are covered above
    mismatches = []
    for sc in builtin_scenarios():
        config = config_from_dict(
            {
                "scenario": sc.name,
                "seed": 7,
                "integration": {"dt": sc.integration.dt, "t_final": 1.0},
            }
        )
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / sc.name / tag
            run(config, out_dir=out)
            dirs.append(out)
        for artifact in ("report.json", "trajectory.csv"):
            if (dirs[0] / artifact).read_bytes() != (dirs[1] / artifact).read_bytes():
                mismatches.append(f"{sc.name}/{artifact}")
    report(
        10,
        "every scenario rerun produces byte-identical CSV and JSON",
        not mismatches,
        ", ".join(mismatches) if mismatches else "9 scenarios compared",
    )

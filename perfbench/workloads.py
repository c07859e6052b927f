"""The benchmark's three workloads, their output checks and the traced layers.

Every workload is a closed loop in one single-threaded process: an operation
starts only after the previous one returned. A *pass* is a fixed list of
operations built once from the workload seed; every pass repeats the same
inputs, so per-pass counts repeat exactly between runs. Each operation is
timed on its own, and its output is checked after its clock stops.

Operations call the package through module attributes looked up at call time
(``dynamics.integrate_batch(...)``, never a name bound at import), so the
traced run's wrappers see them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from tcconsensus import (
    analysis,
    app,
    dynamics,
    equilibrium,
    intervals,
    scenarios,
)

from tcconsensus.graph import row_stats
from tcconsensus.rays import lyapunov_Y

from netgen import wide_network
from tracing import NAME, NOTE, RAISED, Target, nearest_ancestor, span_stats


@dataclass(frozen=True)
class Op:
    """One timed operation: ``call()`` is timed, ``check(result)`` is not.

    ``mode`` groups operations for reporting, ``traj_steps`` is the number
    of trajectories times RK4 steps the call integrates.
    """

    mode: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    traj_steps: int = 0


class Workload:
    name = ""
    # fixed tail percentile: with equal counts of each operation kind per
    # pass, the level sits inside the slowest kind's share of the samples
    tail_level = 90.0
    # modes whose ops count toward traj_steps_per_ref and traj_steps_per_s
    integrating_modes: tuple[str, ...] = ()

    def prime(self) -> None:
        """First call into each layer the workload uses, untimed by the
        loop: lazy imports and first-use costs land in set-up time."""

    def ops(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scenarios


def _same_bytes(a: Path, b: Path, names: tuple[str, ...]) -> bool:
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


class Scenarios(Workload):
    """All nine built-in scenarios through ``app.run`` with an output
    directory, the code path of ``tcconsensus scenario <name> --out``.

    Why: this is what users run. The systems are small (n <= 5, one
    trajectory), so the run is bound by per-call overhead in ``rhs_batch``,
    the monitors, CSV and JSON; a kernel that adds per-call set-up loses
    here. Every config runs twice and the reruns must be byte-identical, as
    in acceptance criterion 10. The horizon is shortened to ``t_final`` for
    every scenario, because the full horizons take minutes.
    """

    name = "scenarios"
    tail_level = 95.0
    integrating_modes = ("simulate",)

    def __init__(self, seed: int, out: Path, t_final: float = 0.25):
        self.out = out
        self.configs = []
        self.expected = {}
        for sc in scenarios.builtin_scenarios():
            cfg = app.config_from_dict(
                {
                    "scenario": sc.name,
                    "seed": seed,
                    "integration": {"dt": sc.integration.dt, "t_final": t_final},
                }
            )
            self.configs.append(cfg)
            self.expected[sc.name] = sc.expected_class

    def prime(self) -> None:
        # ex1 carries sine edges, so its classification performs the first
        # fixed-point scan and its lazy scipy import
        cfg = self.configs[0]
        dt = cfg.integration.dt
        first = app.config_from_dict(
            {"scenario": cfg.scenario, "seed": cfg.seed,
             "integration": {"dt": dt, "t_final": dt}}
        )
        if app.run(first, out_dir=self.out / "prime") == 2:
            raise RuntimeError("priming run failed")

    def _check_pair(self, name: str, a: Path, b: Path) -> Callable[[int], bool]:
        def check(status: int) -> bool:
            if status == 2:
                return False
            files = ("report.json", "trajectory.csv")
            ok = _same_bytes(a, b, files)
            report = json.loads((b / "report.json").read_text(encoding="utf-8"))
            ok = ok and report["verdict"]["classification"] == self.expected[name]
            for d in (a, b):
                for f in files:
                    (d / f).unlink()
            return ok

        return check

    def ops(self) -> list[Op]:
        out = []
        for cfg in self.configs:
            a = self.out / cfg.scenario / "a"
            b = self.out / cfg.scenario / "b"
            steps = cfg.integration.steps()
            out.append(Op("simulate", lambda c=cfg, d=a: app.run(c, out_dir=d),
                          lambda status: status != 2, steps))
            out.append(Op("simulate", lambda c=cfg, d=b: app.run(c, out_dir=d),
                          self._check_pair(cfg.scenario, a, b), steps))
        return out


# ---------------------------------------------------------------------------
# monte-carlo


class MonteCarlo(Workload):
    """Lockstep ``integrate_batch`` on the built-in 5-agent systems, shaped
    like acceptance criteria 1 (ex1, 20 runs), 4 (ex2, 1000 starts inside
    the box), 5 (ex3, 50 runs) and 8 (bipartite, 20 runs), plus the gated
    ``discarded`` network. No classification and no I/O.

    Why: the same ``rhs_batch`` as the scenarios, but the work per call grows
    with the batch size m (20 to 1000), so vectorisation gains show here
    and a change that only cuts per-call overhead shows less. Criterion 1's
    CPU gate lives in this regime. Horizons are short and recording keeps
    every 50th step, the density of the full-length criteria. Five jobs, an
    odd count, keep the median operation inside one job's samples.
    """

    name = "monte-carlo"
    tail_level = 90.0
    integrating_modes = ("batch",)

    DT = 1e-3
    STRIDE = 50

    def __init__(self, seed: int, out: Path, steps_scale: float = 1.0):
        self.jobs = []
        plan = (  # scenario, batch size, RK4 steps
            ("ex1", 20, 200),
            ("ex2", 1000, 50),
            ("ex3", 50, 150),
            ("bipartite", 20, 200),
            ("discarded", 200, 100),
        )
        for name, m, steps in plan:
            sc = scenarios.scenario_by_name(name)
            if name == "ex2":
                x0 = equilibrium.seed_stream(seed, m, sc.system.n, -1.0, 1.0)
            else:
                x0 = sc.sample_x0(seed=seed, count=m)
            steps = max(1, int(round(steps * steps_scale)))
            spec = dynamics.IntegrationSpec(
                dt=self.DT, t_final=steps * self.DT, record_stride=self.STRIDE
            )
            self.jobs.append((sc, x0, spec))

    def prime(self) -> None:
        for sc, x0, _ in self.jobs:
            dynamics.integrate_batch(
                sc.system, x0[:2], dynamics.IntegrationSpec(self.DT, self.DT)
            )

    def _check(self, sc, x0) -> Callable[[Any], bool]:
        spread0 = x0.max(axis=1) - x0.min(axis=1)

        def spreads(batch):
            final = batch.states[-1]
            return final.max(axis=1) - final.min(axis=1)

        if sc.name == "ex1":
            # criterion 3 at the endpoints: the Y monitor does not increase
            def check(batch) -> bool:
                y0 = [lyapunov_Y(s, sc.box_spec)[0] for s in x0]
                y1 = [lyapunov_Y(s, sc.box_spec)[0] for s in batch.states[-1]]
                return all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(y0, y1))
        elif sc.name == "ex2":
            # criterion 4: starts inside [-1, 1]^5 stay within 10*dt*a_bar
            _, a_bar = row_stats(sc.system.graph)
            tol = 10.0 * self.DT * a_bar

            def check(batch) -> bool:
                s = batch.states
                return float(np.maximum(-1.0 - s, s - 1.0).max()) <= tol
        elif sc.name == "ex3":
            # criterion 5: runs approach the unique equilibrium
            eq = equilibrium.solve_equilibrium(sc.system, np.zeros(sc.system.n)).point
            start = np.abs(x0 - eq).max(axis=1)

            def check(batch) -> bool:
                return bool((np.abs(batch.states[-1] - eq).max(axis=1) < start).all())
        elif sc.name == "bipartite":
            # criterion 8: the sign-flipping split keeps half its spread
            def check(batch) -> bool:
                return bool((spreads(batch) >= 0.5 * spread0).all())
        else:
            # gated averaging never widens the spread
            def check(batch) -> bool:
                return bool((spreads(batch) <= spread0 + 1e-12).all())

        def checked(batch) -> bool:
            return bool(np.isfinite(batch.states).all()) and check(batch)

        return checked

    def ops(self) -> list[Op]:
        return [
            Op(
                "batch",
                lambda sc=sc, x0=x0, spec=spec: dynamics.integrate_batch(sc.system, x0, spec),
                self._check(sc, x0),
                x0.shape[0] * spec.steps(),
            )
            for sc, x0, spec in self.jobs
        ]


# ---------------------------------------------------------------------------
# wide network


class WideNetwork(Workload):
    """A seeded ring-plus-random digraph with E = 10 n edges (n = 200), read
    from a JSON config file, so every edge holds its own function object.
    One pass runs the three CLI modes on it, each including the config load:

    - analyze: ``app.run`` in analyze mode (classification, which runs the
      ray search and builds the invariant box);
    - equilibrium: ``app.run`` in equilibrium mode, then
      ``uniqueness_probe`` from three seeds;
    - simulate: ``integrate_batch`` of eight trajectories.

    Why: edge count is the system's only size axis, and every per-edge loop
    (``rhs_batch``, the Picard map, the ray search's sector checks) scales
    with it.
    """

    name = "wide-network"
    # a 30 s run holds about ten passes of three operations: p70 keeps
    # about ten samples beyond the tail, inside the slowest mode's third
    tail_level = 70.0
    integrating_modes = ("simulate",)

    DT = 0.01
    PROBE_STARTS = 3
    SIM_RUNS = 8

    def __init__(self, seed: int, out: Path, n: int = 200, sim_steps: int = 16):
        self.seed = seed
        self.out = out
        x0 = equilibrium.seed_stream(seed, 1, n, -3.0, 3.0)[0]
        config = {
            "system": wide_network(seed, n),
            "x0": [float(v) for v in x0],
            "integration": {"dt": self.DT, "t_final": sim_steps * self.DT},
            "seed": seed,
        }
        out.mkdir(parents=True, exist_ok=True)
        self.path = out / "wide.json"
        self.path.write_text(json.dumps(config), encoding="utf-8")
        self.sim_x0 = equilibrium.seed_stream(seed + 1, self.SIM_RUNS, n, -3.0, 3.0)
        self.sim_steps = sim_steps

    def prime(self) -> None:
        config = app.load_config(self.path)
        dynamics.rhs_batch(config.system, self.sim_x0)
        small = app.system_from_dict(wide_network(self.seed, 12, extra=3))
        analysis.classify_system(small)
        equilibrium.solve_equilibrium(small, np.zeros(small.n))

    def _report(self, mode: str) -> dict:
        path = self.out / mode / "report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        return report

    def _analyze(self):
        return app.run(app.load_config(self.path), mode="analyze", out_dir=self.out / "analyze")

    def _check_analyze(self, status) -> bool:
        verdict = self._report("analyze")["verdict"]
        return (
            status == 0
            and verdict["classification"] == "Consensus"
            and verdict["conditions"]["admissible_rays"]["status"] == "pass"
        )

    def _equilibrium(self):
        config = app.load_config(self.path)
        status = app.run(config, mode="equilibrium", out_dir=self.out / "equilibrium")
        probe = equilibrium.uniqueness_probe(
            config.system, (-1.0, 1.0), self.PROBE_STARTS, tol=1e-8, seed=self.seed
        )
        return status, probe

    def _check_equilibrium(self, result) -> bool:
        status, probe = result
        if status != 0:
            return False
        solved = self._report("equilibrium")["equilibrium"]
        # an unconverged start is a failed operation
        return solved["residual"] <= 1e-10 and all(
            o.equilibrium is not None and o.equilibrium.residual <= 1e-8
            for o in probe.outcomes
        )

    def _simulate(self):
        config = app.load_config(self.path)
        return dynamics.integrate_batch(config.system, self.sim_x0, config.integration)

    def _check_simulate(self, batch) -> bool:
        s = batch.states
        spread0 = s[0].max(axis=1) - s[0].min(axis=1)
        spread1 = s[-1].max(axis=1) - s[-1].min(axis=1)
        return bool(np.isfinite(s).all() and (spread1 <= 0.5 * spread0).all())

    def ops(self) -> list[Op]:
        return [
            Op("analyze", self._analyze, self._check_analyze),
            Op("equilibrium", self._equilibrium, self._check_equilibrium),
            Op("simulate", self._simulate, self._check_simulate,
               self.SIM_RUNS * self.sim_steps),
        ]


WORKLOADS = {w.name: w for w in (Scenarios, MonteCarlo, WideNetwork)}


# ---------------------------------------------------------------------------
# traced layers


def _spec_arg(args, kwargs, _result):
    return args[1] if len(args) > 1 else kwargs["spec"]


def _nbytes(_args, _kwargs, result):
    return len(result.encode("utf-8"))


def trace_targets() -> list[Target]:
    """Every public function the per-layer metrics need, at each name its
    callers look it up under."""
    T = Target
    return [
        T(dynamics, "rhs_batch", "dynamics.rhs_batch"),
        T(dynamics, "integrate_batch", "dynamics.integrate_batch"),
        T(app, "monitor_trajectory", "dynamics.monitor_trajectory"),
        T(app, "attach_channels", "dynamics.attach_channels"),
        T(dynamics, "attach_channels", "dynamics.attach_channels"),
        T(dynamics.Trajectory, "to_csv", "dynamics.to_csv", _nbytes),
        T(dynamics, "lyapunov_Y", "rays.lyapunov_Y"),
        T(app, "classify_system", "analysis.classify_system"),
        T(analysis, "find_admissible_rays", "analysis.find_admissible_rays",
          lambda a, k, r: r is not None),
        T(analysis, "consensus_zone", "analysis.consensus_zone"),
        T(analysis, "sector_membership", "constraints.sector_membership", _spec_arg),
        T(analysis, "fixed_point_set", "constraints.fixed_point_set"),
        T(equilibrium, "fixed_point_set", "constraints.fixed_point_set"),
        T(analysis, "difference_quotient_bounds", "constraints.difference_quotient_bounds"),
        T(equilibrium, "difference_quotient_bounds", "constraints.difference_quotient_bounds"),
        T(app, "solve_equilibrium", "equilibrium.solve_equilibrium",
          lambda a, k, r: r.iterations),
        T(equilibrium, "solve_equilibrium", "equilibrium.solve_equilibrium",
          lambda a, k, r: r.iterations),
        T(equilibrium, "residual", "equilibrium.residual"),
        T(equilibrium, "uniqueness_probe", "equilibrium.uniqueness_probe"),
        T(equilibrium, "invariant_box", "equilibrium.invariant_box"),
        T(intervals.IntervalSet, "intersect", "intervals.intersect"),
        T(app, "system_from_dict", "app.system_from_dict"),
        T(app, "build_report", "app.build_report"),
        T(app, "render_report", "app.render_report", _nbytes),
        T(scenarios, "builtin_scenarios", "scenarios.builtin_scenarios"),
        T(app, "build_digraph", "graph.build_digraph"),
        T(scenarios, "build_digraph", "graph.build_digraph"),
        T(analysis, "is_strongly_connected", "graph.is_strongly_connected"),
    ]


# metric name -> (span name, statistic); statistic is calls, s or self_s
SPAN_METRICS = {
    "dynamics.rhs_batch.calls": ("dynamics.rhs_batch", "calls"),
    "dynamics.integrate_batch.self_s": ("dynamics.integrate_batch", "self_s"),
    "dynamics.monitor_trajectory.s": ("dynamics.monitor_trajectory", "s"),
    "dynamics.attach_channels.s": ("dynamics.attach_channels", "s"),
    "dynamics.to_csv.s": ("dynamics.to_csv", "s"),
    "rays.lyapunov_Y.calls": ("rays.lyapunov_Y", "calls"),
    "analysis.classify_system.s": ("analysis.classify_system", "s"),
    "analysis.find_admissible_rays.calls": ("analysis.find_admissible_rays", "calls"),
    "analysis.find_admissible_rays.s": ("analysis.find_admissible_rays", "s"),
    "analysis.find_admissible_rays.self_s": ("analysis.find_admissible_rays", "self_s"),
    "analysis.consensus_zone.calls": ("analysis.consensus_zone", "calls"),
    "analysis.consensus_zone.s": ("analysis.consensus_zone", "s"),
    "constraints.sector_membership.calls": ("constraints.sector_membership", "calls"),
    "constraints.sector_membership.s": ("constraints.sector_membership", "s"),
    "constraints.fixed_point_set.calls": ("constraints.fixed_point_set", "calls"),
    "constraints.fixed_point_set.s": ("constraints.fixed_point_set", "s"),
    "constraints.difference_quotient_bounds.calls": ("constraints.difference_quotient_bounds", "calls"),
    "constraints.difference_quotient_bounds.s": ("constraints.difference_quotient_bounds", "s"),
    "equilibrium.solve_equilibrium.calls": ("equilibrium.solve_equilibrium", "calls"),
    "equilibrium.solve_equilibrium.s": ("equilibrium.solve_equilibrium", "s"),
    "equilibrium.residual.calls": ("equilibrium.residual", "calls"),
    "equilibrium.uniqueness_probe.s": ("equilibrium.uniqueness_probe", "s"),
    "equilibrium.invariant_box.s": ("equilibrium.invariant_box", "s"),
    "intervals.intersect.calls": ("intervals.intersect", "calls"),
    "app.system_from_dict.s": ("app.system_from_dict", "s"),
    "app.build_report.s": ("app.build_report", "s"),
    "app.render_report.s": ("app.render_report", "s"),
    "scenarios.builtin_scenarios.calls": ("scenarios.builtin_scenarios", "calls"),
    "scenarios.builtin_scenarios.s": ("scenarios.builtin_scenarios", "s"),
    "graph.build_digraph.s": ("graph.build_digraph", "s"),
    "graph.is_strongly_connected.s": ("graph.is_strongly_connected", "s"),
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    stats = span_stats(spans)
    out: dict[str, float] = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        st = stats.get(span)
        if st is None:
            out[metric] = 0.0 if stat != "calls" else 0
        else:
            out[metric] = {"calls": st.calls, "s": st.total_s, "self_s": st.self_s}[stat]

    rhs = stats.get("dynamics.rhs_batch")
    out["dynamics.rhs_batch.us_per_call"] = (
        1e6 * rhs.total_s / rhs.calls if rhs is not None else 0.0
    )

    notes: dict[str, list] = {}
    searches: dict[int, set] = {}
    for i, s in enumerate(spans):
        notes.setdefault(s[NAME], []).append(s[NOTE])
        if s[NAME] == "constraints.sector_membership":
            owner = nearest_ancestor(spans, i, "analysis.find_admissible_rays")
            if owner >= 0:
                searches.setdefault(owner, set()).add(s[NOTE])

    out["dynamics.csv_bytes"] = sum(notes.get("dynamics.to_csv", []))
    out["app.report_bytes"] = sum(notes.get("app.render_report", []))
    candidates = sum(len(v) for v in searches.values())
    found = sum(1 for v in notes.get("analysis.find_admissible_rays", []) if v is True)
    out["analysis.ray_candidates"] = candidates
    out["analysis.ray_admit_ratio"] = found / candidates if candidates else 0.0
    solves = notes.get("equilibrium.solve_equilibrium", [])
    converged = [v for v in solves if v != RAISED]
    out["equilibrium.iterations"] = sum(converged)
    out["equilibrium.converged_ratio"] = len(converged) / len(solves) if solves else 0.0
    return out


SWEEP_SIZES = (50, 200, 1000)


def scaling_sweep(seed: int) -> tuple[dict[str, float], int]:
    """Untraced edge-count sweep on the wide-network generator: median
    ``rhs_batch`` time per call (m = 8) and one ``classify_system`` per
    size. Returns the metrics and the number of sizes whose verdict was not
    ``Consensus``."""
    out: dict[str, float] = {}
    failed = 0
    for n in SWEEP_SIZES:
        system = app.system_from_dict(wide_network(seed, n))
        X = equilibrium.seed_stream(seed, 8, n, -3.0, 3.0)
        dynamics.rhs_batch(system, X)
        times = []
        for _ in range(5):
            t0 = perf_counter()
            dynamics.rhs_batch(system, X)
            times.append(perf_counter() - t0)
        out[f"dynamics.rhs_batch.us_per_call.n{n}"] = 1e6 * float(np.median(times))
        t0 = perf_counter()
        verdict = analysis.classify_system(system)
        out[f"analysis.classify_system.s.n{n}"] = perf_counter() - t0
        failed += verdict.classification != "Consensus"
    return out, failed

"""Equilibrium solving, multi-start uniqueness probing, and the self-mapped
invariant box construction.

An equilibrium is a state where every agent's constrained input sum
vanishes. The solver ladder runs plain fixed-point (Picard) iteration on the
degree-normalized update map, falls back to damped iteration, and finally to
long-horizon integration; each rung's failure is recorded in the method
note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import box_violation, difference_quotient_bounds, fixed_point_set
from .dynamics import IntegrationSpec, System, _input_sums, default_dt, integrate, rhs
from .errors import (
    EmptyFixedPointSetError,
    NoInEdgeAgentError,
    NonFiniteStateError,
    UnconvergedError,
)
from .graph import row_stats
from .intervals import IntervalSet


def residual(system: System, point) -> float:
    """Max-norm of the right-hand side at ``point``."""
    return float(np.abs(rhs(system, point)).max())


@dataclass(frozen=True)
class Equilibrium:
    point: np.ndarray
    residual: float
    method: str
    iterations: int


def _picard_map(system: System, e: np.ndarray) -> np.ndarray:
    """Degree-normalized update: each agent moves to the weighted mean of its
    constrained in-neighbor transmissions. Gated edges drop out of both the
    numerator and the effective degree while closed; an agent with no open
    in-edge keeps its state."""
    num, den = _input_sums(system, e[None, :])
    out = e.copy()
    active = den[0] > 0
    out[active] = num[0, active] / den[0, active]
    return out


def solve_equilibrium(
    system: System,
    seed,
    tol: float = 1e-10,
    budget: int = 20000,
) -> Equilibrium:
    """Solve for an equilibrium starting from ``seed``.

    Ladder: Picard iteration, damped iteration (relaxation 0.5 then 0.25),
    then integration from the seed. Raises ``UnconvergedError`` with the
    best point found when every rung exhausts the budget.
    """
    alpha, a_bar = row_stats(system.graph)
    if np.any(alpha <= 0):
        raise NoInEdgeAgentError(
            f"agents without in-edges: {np.flatnonzero(alpha <= 0).tolist()}"
        )
    seed = np.asarray(seed, dtype=np.float64)
    notes = []
    best = seed
    best_res = residual(system, seed)

    for damping, label in ((1.0, "picard"), (0.5, "damped-0.5"), (0.25, "damped-0.25")):
        e = seed.copy()
        for it in range(1, budget + 1):
            nxt = _picard_map(system, e)
            e = (1.0 - damping) * e + damping * nxt
            if not np.all(np.isfinite(e)) or np.abs(e).max() > 1e12:
                notes.append(f"{label}: diverged")
                break
            if it % 8 == 0 or it == budget:
                res = residual(system, e)
                if res < best_res:
                    best, best_res = e.copy(), res
                if res <= tol:
                    method = label if not notes else ";".join(notes) + f";{label}"
                    return Equilibrium(e, res, method, it)
        else:
            notes.append(f"{label}: budget exhausted")
            continue

    # integration tail: ride the dynamics until the residual settles
    dt = default_dt(system)
    e = seed.copy()
    total_steps = 0
    chunks = min(60, max(2, budget // 1000))
    for chunk in range(chunks):
        spec = IntegrationSpec(dt=dt, t_final=10.0, record_stride=10**9)
        try:
            traj = integrate(system, e, spec)
        except NonFiniteStateError:
            break
        e = traj.final_state()
        total_steps += spec.steps()
        res = residual(system, e)
        if res < best_res:
            best, best_res = e.copy(), res
        if res <= tol:
            notes.append("integration-tail")
            return Equilibrium(e, res, ";".join(notes), total_steps)
    raise UnconvergedError(
        f"no equilibrium within tol {tol:g}; best residual {best_res:g}",
        best=best,
        residual=best_res,
    )


# ---------------------------------------------------------------------------
# deterministic seed stream (splitmix-style counter)

_MASK = (1 << 64) - 1


def _splitmix64(index: int) -> float:
    z = (index * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z = z ^ (z >> 31)
    return (z >> 11) / float(1 << 53)


def seed_stream(seed: int, count: int, n: int, lo: float, hi: float) -> np.ndarray:
    """``count`` deterministic pseudo-random points in ``[lo, hi]^n``."""
    base = (seed * 0x2545F4914F6CDD1D + 0x632BE59BD9B4E019) & _MASK
    out = np.empty((count, n))
    for c in range(count):
        for k in range(n):
            out[c, k] = lo + (hi - lo) * _splitmix64((base + c * n + k) & _MASK)
    return out


@dataclass(frozen=True)
class StartOutcome:
    seed_point: np.ndarray
    equilibrium: Equilibrium | None
    error: str | None = None


@dataclass(frozen=True)
class UniquenessReport:
    """Multi-start clustering evidence. A single cluster is evidence of
    uniqueness, not proof; the note says so."""

    clusters: tuple[tuple[np.ndarray, int], ...]  # (representative, members)
    outcomes: tuple[StartOutcome, ...]
    cluster_radius: float
    note: str = (
        "a single cluster is evidence of uniqueness under the multi-start "
        "probe, not a proof"
    )

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)


def uniqueness_probe(
    system: System,
    box: tuple[float, float],
    n_starts: int,
    tol: float = 1e-8,
    seed: int = 0,
) -> UniquenessReport:
    """Solve from ``n_starts`` deterministic seeds in ``box`` and cluster the
    solutions by max-norm distance, within ``1e3 * tol`` of a cluster's
    first member."""
    if n_starts < 2:
        raise ValueError("n_starts must be at least 2")
    cluster_radius = 1e3 * tol
    lo, hi = box
    seeds = seed_stream(seed, n_starts, system.n, lo, hi)
    outcomes = []
    points = []
    for s in seeds:
        try:
            eq = solve_equilibrium(system, s, tol=tol)
            outcomes.append(StartOutcome(s, eq))
            points.append(eq.point)
        except (UnconvergedError, NoInEdgeAgentError) as err:
            outcomes.append(StartOutcome(s, None, error=str(err)))
    clusters: list[tuple[np.ndarray, int]] = []
    for p in points:
        for idx, (rep, count) in enumerate(clusters):
            if np.abs(p - rep).max() <= cluster_radius:
                clusters[idx] = (rep, count + 1)
                break
        else:
            clusters.append((p, 1))
    return UniquenessReport(
        clusters=tuple(clusters),
        outcomes=tuple(outcomes),
        cluster_radius=cluster_radius,
    )


# ---------------------------------------------------------------------------
# invariant box construction

K_STAR_FLOOR = -1.0 + 1e-9


def theta_hull(system: System) -> tuple[float, float]:
    """Hull ``[X_m, X_M]`` of the union of all edge fixed-point sets."""
    lo = math.inf
    hi = -math.inf
    for edge, fn in system.distinct:
        theta = fixed_point_set(fn)
        if theta.is_empty:
            raise EmptyFixedPointSetError(f"edge {edge} has an empty fixed-point set")
        a, b = theta.hull()
        lo = min(lo, a)
        hi = max(hi, b)
    return lo, hi


def invariant_box(system: System) -> tuple[float, float] | None:
    """Self-mapped box ``[y_m, y_M]`` built from the fixed-point hull, a
    uniform chord-slope floor, and the anti-diagonal through the hull.

    Returns ``None`` when no valid slope floor is certified, when the hull
    is unbounded, or when the non-negative-floor fallback cannot be
    validated.
    """
    x_m, x_M = theta_hull(system)
    if not (math.isfinite(x_m) and math.isfinite(x_M)):
        return None
    half = max(0.5 * (x_M - x_m), 1.0)
    center = 0.5 * (x_M + x_m)
    region = IntervalSet.closed(center - 4.0 * half, center + 4.0 * half)

    k_star = math.inf
    ceiling = -math.inf
    for _, fn in system.distinct:
        qb = difference_quotient_bounds(fn, region)
        if qb is None:
            continue
        k_star = min(k_star, qb.lo)
        ceiling = max(ceiling, qb.hi)
    if not math.isfinite(k_star) or k_star <= K_STAR_FLOOR or ceiling > 1.0 + 1e-12:
        return None

    if k_star < 0.0:
        # intersections of the parallel bound lines with the anti-diagonal
        y_M = (x_M + k_star * x_m) / (1.0 + k_star)
        y_m = -y_M + x_M + x_m
        return y_m, y_M

    # slope floor in [0, 1): the ray construction degenerates; fall back to
    # the hull itself and validate the range condition by direct evaluation
    if all(box_violation(fn, x_m, x_M) is None for _, fn in system.distinct):
        return x_m, x_M
    return None

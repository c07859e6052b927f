"""Equilibrium solving, multi-start uniqueness probing, and the self-mapped
invariant box construction.

An equilibrium is a state where every agent's constrained input sum
vanishes. The solver ladder runs plain fixed-point (Picard) iteration on the
degree-normalized update map, then damped (Krasnosel'skii-Mann) iteration,
and finally long-horizon integration. A start leaves a rung when it
diverges, exhausts its budget or stalls (its residual stops halving every 64
iterations while the state circles rather than drifts), and its method note
records why; see :func:`solve_equilibrium`.
The starts climb the ladder rung by rung, the starts on a rung in lockstep:
one kernel call per iteration serves every start on the rung, and the same
input sums give their residuals at each check.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .constraints import box_violation, difference_quotient_bounds, fixed_point_set
from .dynamics import _DIVERGENCE_LIMIT, IntegrationSpec, System, _input_sums
from .dynamics import _state_vector, default_dt, integrate, rhs
from .errors import (
    EmptyFixedPointSetError,
    NoInEdgeAgentError,
    NonFiniteStateError,
    UnconvergedError,
)
from .graph import INTEGER, NUMBER, as_float, check_numbers, row_stats
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


def _map_step(E, num, den):
    """Degree-normalized update of the rows of ``E`` from their input sums:
    each agent moves to the weighted mean of its constrained in-neighbor
    transmissions. Gated edges drop out of both the numerator and the
    effective degree while closed; an agent with no open in-edge keeps its
    state."""
    return np.divide(num, den, out=E.copy(), where=den > 0)


_BUDGET = 20000
_RUNGS = ((1.0, "picard"), (0.5, "damped-0.5"), (0.25, "damped-0.25"))


def _ladder(system: System, seeds, tol: float, budget: int) -> list:
    """Climb the ladder from every row of ``seeds``, rung by rung, the
    starts on a rung in lockstep; one ``Equilibrium`` or
    ``UnconvergedError`` per row."""
    check_numbers([budget], "budget", INTEGER, ValueError)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")
    check_numbers([tol], "tol", NUMBER, ValueError)
    tol = as_float(tol)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    alpha, _ = row_stats(system.graph)
    if np.any(alpha <= 0):
        raise NoInEdgeAgentError(
            f"agents without in-edges: {np.flatnonzero(alpha <= 0).tolist()}"
        )
    seeds = np.asarray(seeds, dtype=np.float64)
    if not np.all(np.isfinite(seeds)):
        raise NonFiniteStateError("state vector has non-finite entries")
    m = len(seeds)
    outcomes: list = [None] * m
    notes: list = [[] for _ in range(m)]
    best, best_res = seeds.copy(), np.full(m, math.inf)
    climbing = np.arange(m)  # the starts still on the ladder

    for d, name in _RUNGS:
        # the rows on this rung, their states after ``it`` iterations from
        # their seeds, and their residuals and states at the last 8 checks
        rows, E, it = climbing, seeds[climbing], 0
        history: deque = deque(maxlen=8)
        while rows.size:
            num, den = _input_sums(system, E)
            T = _map_step(E, num, den)
            gone = np.zeros(rows.size, dtype=bool)
            if it % 8 == 0 or it == budget:
                r = np.abs(num - E * den).max(axis=1)
                better = r < best_res[rows]
                best[rows[better]], best_res[rows[better]] = E[better], r[better]
                # stalled: the residual failed to halve over 64 iterations,
                # at that rate it would not reach tol within the budget, and
                # the state went round rather than along: it moved less than
                # half as far as 64 of its current steps would carry it
                stalled = False
                if len(history) == history.maxlen:
                    past, then = history[0]
                    with np.errstate(all="ignore"):
                        ratio = np.where(past > 0, r / past, math.inf)
                        slow = r * ratio ** ((budget - it) / 64) > tol
                    moved = np.abs(E - then).max(axis=1)
                    span = 32 * d * np.abs(T - E).max(axis=1)
                    stalled = (ratio > 0.5) & ((ratio >= 1.0) | slow) & (moved < span)
                done = (r <= tol) & (it > 0)
                gone = done | stalled | (it == budget)
                for i in np.flatnonzero(done).tolist():
                    method = ";".join(notes[rows[i]] + [name])
                    eq = Equilibrium(E[i].copy(), float(r[i]), method, it)
                    outcomes[rows[i]] = eq
                for i in np.flatnonzero(gone & ~done).tolist():
                    why = (
                        "budget exhausted"
                        if it == budget
                        else f"stalled at {it} (residual ratio {ratio[i]:.2f})"
                    )
                    notes[rows[i]].append(f"{name}: {why}")
                history.append((r, E))
            E = (1.0 - d) * E + d * T
            if not np.abs(E).max() <= _DIVERGENCE_LIMIT:  # NaN fails it too
                big = ~(np.abs(E).max(axis=1) <= _DIVERGENCE_LIMIT) & ~gone
                for k in rows[big].tolist():
                    notes[k].append(f"{name}: diverged")
                gone |= big
            if gone.any():
                keep = ~gone
                rows, E = rows[keep], E[keep]
                history = deque(((h[keep], s[keep]) for h, s in history), maxlen=8)
            it += 1
        climbing = climbing[[outcomes[k] is None for k in climbing.tolist()]]

    # integration tail for each start that left every rung: ride the
    # dynamics from the seed until the residual settles
    spec = IntegrationSpec(dt=default_dt(system), t_final=10.0, record_stride=10**9)
    for k in climbing.tolist():
        e, steps = seeds[k], 0
        for _ in range(min(60, max(2, budget // 1000))):
            try:
                e = integrate(system, e, spec).final_state()
            except NonFiniteStateError:
                break
            steps += spec.steps()
            r = residual(system, e)
            if r < best_res[k]:
                best[k], best_res[k] = e, r
            if r <= tol:
                method = ";".join(notes[k] + ["integration-tail"])
                outcomes[k] = Equilibrium(e, r, method, steps)
                break
    return [
        UnconvergedError(
            f"no equilibrium within tol {tol:g}; best residual {res:g}",
            best=b if res < math.inf else None,
            residual=res,
        )
        if out is None
        else out
        for out, b, res in zip(outcomes, best, best_res.tolist())
    ]


def solve_equilibrium(
    system: System,
    seed,
    tol: float = 1e-10,
    budget: int = _BUDGET,
) -> Equilibrium:
    """Solve for an equilibrium starting from ``seed``, a state of shape
    ``(n,)``.

    Ladder: Picard iteration, damped iteration (relaxation 0.5 then 0.25),
    then integration. Each rung starts from the seed, whose residual is the
    check at iteration 0; the residual is checked again every 8 iterations
    and at the budget, and the rung converges at a later check within
    ``tol``. A rung is left when the state diverges, when ``budget``
    iterations pass, or when it stalls: the residual at a check exceeds half
    the residual 8 checks (64 iterations) earlier, that ratio, kept up over
    the rest of the budget, would not bring it within ``tol``, and the state
    moved less over those 64 iterations than 32 of its current steps span.
    A cycle or an oscillation stalls; a steady drift with a flat residual
    keeps its rung. Raises ``UnconvergedError`` with the best point found
    when every rung and the integration tail fail, ``ValueError`` unless
    ``budget`` is an integer of at least 1 and ``tol`` a finite positive
    number (neither a ``bool``), and ``DimensionMismatchError`` for a seed
    of another shape.

    The method note is one ``<rung>: <why>`` entry per rung left, then the
    converging rung (``picard``, ``damped-0.5``, ``damped-0.25`` or
    ``integration-tail``), joined by ``;``. ``<why>`` is ``diverged``,
    ``budget exhausted`` or ``stalled at <iteration> (residual ratio
    <ratio>)``, as in ``picard: stalled at 64 (residual ratio
    1.00);damped-0.5``. ``iterations`` counts the converging rung's
    iterations, or the integration tail's steps.
    """
    out = _ladder(system, _state_vector(system, seed)[None, :], tol, budget)[0]
    if isinstance(out, UnconvergedError):
        raise out
    return out


# ---------------------------------------------------------------------------
# deterministic seed stream (splitmix-style counter)

_MASK = (1 << 64) - 1


def seed_stream(seed: int, count: int, n: int, lo: float, hi: float) -> np.ndarray:
    """``count`` deterministic pseudo-random points in ``[lo, hi]^n``: the
    splitmix64 finalizer of the counters ``base + c * n + k``, wrapping
    modulo 2**64, scaled from its top 53 bits."""
    base = np.uint64((seed * 0x2545F4914F6CDD1D + 0x632BE59BD9B4E019) & _MASK)
    z = (base + np.arange(count * n, dtype=np.uint64)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return (lo + (hi - lo) * u).reshape(count, n)


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


def uniqueness_probe(
    system: System,
    box: tuple[float, float],
    n_starts: int,
    tol: float = 1e-8,
    seed: int = 0,
) -> UniquenessReport:
    """Solve from ``n_starts`` deterministic seeds in ``box`` and cluster the
    solutions by max-norm distance, within ``1e3 * tol`` of a cluster's
    first member.

    The starts climb :func:`solve_equilibrium`'s ladder rung by rung, the
    starts on a rung in lockstep, with one kernel call per iteration for
    all of them. Each outcome matches the start's own
    ``solve_equilibrium``: the same method and iterations, and a point
    equal up to the rounding of the batched dense product (the gather-sum
    of a wide table sums each state alike in any batch). ``n_starts``
    must be an integer >= 2, ``seed`` an integer and ``box`` a pair of
    finite numbers with ``lo <= hi``, else ``ValueError``."""
    check_numbers([n_starts], "n_starts", INTEGER, ValueError)
    if n_starts < 2:
        raise ValueError("n_starts must be at least 2")
    check_numbers([seed], "seed", INTEGER, ValueError)
    if not (isinstance(box, (tuple, list)) and len(box) == 2):
        raise ValueError(f"box must be a pair (lo, hi), got {box!r}")
    check_numbers(box, "box", NUMBER, ValueError)
    lo, hi = map(as_float, box)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"box must be finite with lo <= hi, got {(lo, hi)!r}")
    seeds = seed_stream(int(seed), n_starts, system.n, lo, hi)
    try:
        solved = _ladder(system, seeds, tol, _BUDGET)
    except NoInEdgeAgentError as err:
        solved = [err] * n_starts
    cluster_radius = 1e3 * tol
    outcomes = tuple(
        StartOutcome(s, eq)
        if isinstance(eq, Equilibrium)
        else StartOutcome(s, None, error=str(eq))
        for s, eq in zip(seeds, solved)
    )
    points = [o.equilibrium.point for o in outcomes if o.equilibrium is not None]
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
        outcomes=outcomes,
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

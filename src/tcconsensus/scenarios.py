"""Built-in named scenarios: systems bundled with initial-state policies,
integration settings, expected verdicts, and expected monitor outcomes.

Constraint shapes that the source material only sketches are replaced here
by analytic stand-ins engineered to satisfy every stated numeric fact
(consensus-zone sets, ray slope products 0.8 and 0.64, slope-one pieces
with nonzero offset). The stand-ins are versioned with the package;
changing one is a breaking change to the acceptance baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .constraints import (
    Affine,
    ConstraintFn,
    GatedIdentity,
    Identity,
    IntervalProjection,
    Mix,
    PiecewiseLinear,
    Saturation,
    ScaledSine,
)
from .dynamics import IntegrationSpec, System
from .equilibrium import seed_stream
from .graph import build_digraph
from .rays import BoxRaySpec, EquilibriumRaySpec


@dataclass(frozen=True)
class X0Policy:
    """Initial states drawn uniformly from the box ``[lo, hi]`` by
    :func:`~tcconsensus.equilibrium.seed_stream`. Each bound is a number or
    one value per agent (``ValueError`` from :meth:`sample` for another
    width); ``lo == hi`` is a fixed start."""

    lo: float | tuple[float, ...]
    hi: float | tuple[float, ...]

    def sample(self, n: int, seed: int = 0, count: int = 1) -> NDArray[np.float64]:
        lo, hi = np.asarray(self.lo, np.float64), np.asarray(self.hi, np.float64)
        for bound in (lo, hi):
            if bound.ndim and bound.shape != (n,):
                raise ValueError(
                    f"an x0 bound must be a number or {n} values, got {bound.tolist()}"
                )
        return seed_stream(seed, count, n, lo, hi)


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible experiment: system + x0 policy + integration
    settings + expected verdict and monitor outcomes.

    ``expected_check_failures`` lists monitor checks the scenario *expects*
    to fail (counterexample scenarios); a run meets expectations when
    exactly those checks fail.
    """

    name: str
    description: str
    system: System
    x0: X0Policy
    integration: IntegrationSpec
    expected_class: str
    checks: tuple[str, ...] = ()
    expected_check_failures: frozenset[str] = frozenset()
    ray_hints: tuple[BoxRaySpec, ...] = ()
    box_spec: BoxRaySpec | None = None
    eq_spec: EquilibriumRaySpec | None = None

    def sample_x0(self, seed: int = 0, count: int = 1) -> NDArray[np.float64]:
        return self.x0.sample(self.system.n, seed, count)


def _complete_graph(n: int) -> np.ndarray:
    return np.ones((n, n)) - np.eye(n)


def _per_sender(n: int, fns: list[ConstraintFn]) -> dict[tuple[int, int], ConstraintFn]:
    """Complete-graph constraint map where every edge out of sender ``j``
    carries the same function ``fns[j]``."""
    return {(j, i): fns[j] for j in range(n) for i in range(n) if i != j}


# ---------------------------------------------------------------------------
# the five-function catalog used by the irregular-network scenario

F_A = ScaledSine(0.8, math.pi)
F_B = PiecewiseLinear(((-1.0, -0.8), (1.0, 0.8)), 0.0, 0.0)
F_C = Affine(0.5, 0.0)
F_D = PiecewiseLinear(((0.0, 0.0),), -0.9, -0.7)
F_E = PiecewiseLinear(
    (
        (-2.0, -0.3),
        (-1.5, -0.6),
        (-1.0, -0.2),
        (-0.5, -0.4),
        (0.0, 0.0),
        (0.5, 0.4),
        (1.0, 0.2),
        (1.5, 0.6),
        (2.0, 0.3),
    ),
    0.0,
    0.0,
)


def _ex1() -> Scenario:
    weights = [
        [0.0, 0.0, 3.6, 0.0, 0.0],
        [0.0, 0.0, 4.6, 1.3, 6.5],
        [3.6, 0.0, 0.0, 0.0, 7.6],
        [0.5, 1.4, 2.1, 0.0, 0.0],
        [2.9, 6.5, 0.0, 0.0, 0.0],
    ]
    constraints: dict[tuple[int, int], ConstraintFn] = {
        (2, 0): Mix(F_B, F_D),
        (2, 1): F_A,
        (3, 1): F_B,
        (4, 1): Mix(F_E, F_A),
        (0, 2): F_D,
        (4, 2): F_C,
        (0, 3): F_A,
        (1, 3): F_B,
        (2, 3): Mix(F_C, F_D),
        (0, 4): F_C,
        (1, 4): F_E,
    }
    spec = BoxRaySpec(0.0, 0.0, 0.0, -1.0, -0.8)
    return Scenario(
        name="ex1",
        description=(
            "irregular 5-agent network with a mixed per-edge catalog; every "
            "constraint fixes only the origin, so the consensus zone is {0}"
        ),
        system=System(build_digraph(weights), constraints),
        x0=X0Policy(-10.0, 10.0),
        integration=IntegrationSpec(dt=1e-3, t_final=50.0),
        expected_class="Consensus",
        checks=("consensus", "y_monotone", "lemma6"),
        ray_hints=(spec,),
        box_spec=spec,
    )


def _ex2() -> Scenario:
    n = 5
    fns: list[ConstraintFn] = [
        Saturation(-1.0, 1.0),
        IntervalProjection(-1.0, 1.0, 0.5),
        IntervalProjection(-1.0, 1.0, 0.25),
        PiecewiseLinear(((-1.0, -1.0), (1.0, 1.0)), -0.7, -0.7),
        PiecewiseLinear(((-3.0, 0.0), (-1.0, -1.0), (1.0, 1.0), (3.0, 0.0)), 0.0, 0.0),
    ]
    spec = BoxRaySpec(-1.0, 1.0, 0.0, -0.8, -0.8)
    return Scenario(
        name="ex2",
        description=(
            "complete 5-agent network whose constraints all fix [-1, 1]; "
            "states settle to a common value inside that interval"
        ),
        system=System(build_digraph(_complete_graph(n)), _per_sender(n, fns)),
        x0=X0Policy(-5.0, 5.0),
        integration=IntegrationSpec(dt=1e-3, t_final=50.0),
        expected_class="Consensus",
        checks=("consensus", "y_monotone", "box_invariance", "lemma6"),
        ray_hints=(spec,),
        box_spec=spec,
    )


def _ex3() -> Scenario:
    n = 5
    fns: list[ConstraintFn] = [
        Affine(0.5, 1.0),
        Affine(0.5, -1.0),
        Affine(-0.5, 0.5),
        Affine(0.3, 0.0),
        Affine(-0.3, 1.0),
    ]
    return Scenario(
        name="ex3",
        description=(
            "complete 5-agent network of offset affine constraints with an "
            "empty consensus zone and a unique, stable equilibrium"
        ),
        system=System(build_digraph(_complete_graph(n)), _per_sender(n, fns)),
        x0=X0Policy(-5.0, 5.0),
        integration=IntegrationSpec(dt=1e-3, t_final=50.0),
        expected_class="UniqueEquilibrium",
        checks=("v_monotone",),
        eq_spec=EquilibriumRaySpec(-1.0, -1.0),
    )


EX4_OFFSETS = (0.2, -0.2, 0.1, -0.1, 0.0)


def _ex4() -> Scenario:
    n = 5
    fns: list[ConstraintFn] = [
        PiecewiseLinear(((-1.0, -1.0 + c), (1.0, 1.0 + c)), -0.5, -0.5)
        for c in EX4_OFFSETS
    ]
    return Scenario(
        name="ex4",
        description=(
            "complete 5-agent network with slope-one offset pieces: a "
            "continuum of initial-state-dependent equilibria inside the "
            "self-mapped box"
        ),
        system=System(build_digraph(_complete_graph(n)), _per_sender(n, fns)),
        x0=X0Policy(-3.0, 3.0),
        integration=IntegrationSpec(dt=1e-3, t_final=5.0),
        expected_class="EquilibriumExists",
        checks=("box_invariance",),
        box_spec=BoxRaySpec(-3.4, 3.4, 0.0, -0.5, -0.5),
    )


def _interval() -> Scenario:
    n = 5
    p = (-1.0, -2.0, -1.5, -0.5, -1.0)
    q = (1.0, 0.5, 2.0, 1.5, 1.0)
    fns: list[ConstraintFn] = [
        IntervalProjection(p[j], q[j], 0.5) for j in range(n)
    ]
    return Scenario(
        name="interval",
        description=(
            "complete 5-agent network of interval projections with distinct "
            "accepted intervals; consensus lands in the common core [-0.5, 0.5]"
        ),
        system=System(build_digraph(_complete_graph(n)), _per_sender(n, fns)),
        x0=X0Policy(-5.0, 5.0),
        integration=IntegrationSpec(dt=1e-3, t_final=50.0),
        expected_class="Consensus",
        checks=("consensus", "distance_decay"),
        box_spec=BoxRaySpec(-0.5, 0.5, 0.0, -1.0, -1.0),
    )


def _discarded() -> Scenario:
    n = 5
    gate = GatedIdentity(-2.0, 2.0)
    constraints = {(j, i): gate for j in range(n) for i in range(n) if i != j}
    return Scenario(
        name="discarded",
        description=(
            "complete 5-agent network where transmissions outside [-2, 2] "
            "are dropped entirely rather than distorted"
        ),
        system=System(build_digraph(_complete_graph(n)), constraints),
        x0=X0Policy(-2.4, 2.4),
        integration=IntegrationSpec(dt=1e-3, t_final=50.0),
        expected_class="Consensus",
        checks=("consensus",),
    )


def _sine() -> Scenario:
    n = 5
    fn = ScaledSine(1.0, math.pi)
    constraints = {(j, i): fn for j in range(n) for i in range(n) if i != j}
    return Scenario(
        name="sine",
        description=(
            "complete 5-agent network with the smooth odd constraint "
            "-sin(x) on every edge; consensus at the origin"
        ),
        system=System(build_digraph(_complete_graph(n)), constraints),
        x0=X0Policy(-3.0, 3.0),
        integration=IntegrationSpec(dt=1e-3, t_final=50.0),
        expected_class="Consensus",
        checks=("consensus",),
    )


def _necessity_2agent() -> Scenario:
    weights = [[0.0, 1.0], [1.0, 0.0]]
    constraints: dict[tuple[int, int], ConstraintFn] = {
        (1, 0): Affine(1.0, -1.0),
        (0, 1): Affine(1.0, 1.0),
    }
    return Scenario(
        name="necessity-2agent",
        description=(
            "two-agent pinned counterexample: each agent receives the other's "
            "state shifted by one, freezing the pair half a unit outside the "
            "box [-1, 1]; the distance-decay check is expected to fail"
        ),
        system=System(build_digraph(weights), constraints),
        x0=X0Policy((0.5, 1.5), (0.5, 1.5)),
        integration=IntegrationSpec(dt=1e-3, t_final=10.0),
        expected_class="Inconclusive",
        checks=("distance_decay",),
        expected_check_failures=frozenset({"distance_decay"}),
        box_spec=BoxRaySpec(-1.0, 1.0, 0.0, -1.0, -1.0),
    )


BIPARTITE_BLOCKS = ((0, 1, 2), (3, 4))


def _bipartite() -> Scenario:
    n = 5
    block_a, block_b = BIPARTITE_BLOCKS
    same = {i: 0 for i in block_a} | {i: 1 for i in block_b}
    ident = Identity()
    flip = Affine(-1.0, 0.0)
    constraints = {
        (j, i): (ident if same[j] == same[i] else flip)
        for j in range(n)
        for i in range(n)
        if i != j
    }
    return Scenario(
        name="bipartite",
        description=(
            "complete 5-agent network with sign-flipping transmissions across "
            "a two-block split: the blocks agree internally and mirror each "
            "other, so the consensus check is expected to fail"
        ),
        system=System(build_digraph(_complete_graph(n)), constraints),
        x0=X0Policy(
            tuple((2.0, -3.0)[same[i]] for i in range(n)),
            tuple((3.0, -2.0)[same[i]] for i in range(n)),
        ),
        integration=IntegrationSpec(dt=1e-3, t_final=20.0),
        expected_class="Inconclusive",
        checks=("consensus",),
        expected_check_failures=frozenset({"consensus"}),
    )


# name -> factory, in registry order; each lookup builds only its own system
_FACTORIES = {
    "ex1": _ex1,
    "ex2": _ex2,
    "ex3": _ex3,
    "ex4": _ex4,
    "interval": _interval,
    "discarded": _discarded,
    "sine": _sine,
    "necessity-2agent": _necessity_2agent,
    "bipartite": _bipartite,
}


def builtin_scenarios() -> list[Scenario]:
    """Every built-in scenario, freshly built, in registry order."""
    return [make() for make in _FACTORIES.values()]


def scenario_by_name(name: str) -> Scenario:
    """A freshly built scenario; ``KeyError`` lists the known names."""
    make = _FACTORIES.get(name)
    if make is None:
        known = ", ".join(_FACTORIES)
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")
    return make()

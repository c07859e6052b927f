"""Simulation and mechanical verification of multiagent consensus dynamics
under per-edge transmission constraints.

Layers: graphs and interval sets at the bottom; the constraint-function
catalog; fixed-step dynamics with trajectory monitors; equilibrium solving
and invariant-box construction; condition-ledger classification; named
built-in scenarios; and a JSON-config CLI on top.
"""

from .analysis import (
    ConditionResult,
    TheoremVerdict,
    classify_system,
    consensus_zone,
    find_admissible_rays,
)
from .app import RunConfig, build_report, load_config, run, system_from_dict, system_to_dict
from .constraints import (
    Affine,
    ConstraintFn,
    GatedIdentity,
    Identity,
    IntervalProjection,
    Mix,
    PiecewiseLinear,
    QuotientBounds,
    Saturation,
    ScaledSine,
    SectorReport,
    Tabulated,
    difference_quotient_bounds,
    fixed_point_set,
    from_dict,
    sector_membership,
)
from .dynamics import (
    BatchTrajectory,
    IntegrationSpec,
    System,
    Trajectory,
    attach_channels,
    default_dt,
    integrate,
    integrate_batch,
    monitor_trajectory,
    rhs,
    rhs_batch,
)
from .equilibrium import (
    Equilibrium,
    UniquenessReport,
    invariant_box,
    residual,
    seed_stream,
    solve_equilibrium,
    theta_hull,
    uniqueness_probe,
)
from .errors import TCConsensusError
from .graph import Digraph, build_digraph, is_strongly_connected, row_stats
from .intervals import IntervalSet
from .rays import (
    BoxRaySpec,
    EquilibriumRaySpec,
    distance_to_box,
    lyapunov_V,
    lyapunov_Y,
)
from .scenarios import Scenario, X0Policy, builtin_scenarios, scenario_by_name

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "BatchTrajectory",
    "BoxRaySpec",
    "ConditionResult",
    "ConstraintFn",
    "Digraph",
    "Equilibrium",
    "EquilibriumRaySpec",
    "GatedIdentity",
    "Identity",
    "IntegrationSpec",
    "IntervalProjection",
    "IntervalSet",
    "Mix",
    "PiecewiseLinear",
    "QuotientBounds",
    "RunConfig",
    "Saturation",
    "ScaledSine",
    "Scenario",
    "SectorReport",
    "System",
    "TCConsensusError",
    "Tabulated",
    "TheoremVerdict",
    "Trajectory",
    "UniquenessReport",
    "X0Policy",
    "attach_channels",
    "build_digraph",
    "build_report",
    "builtin_scenarios",
    "classify_system",
    "consensus_zone",
    "default_dt",
    "difference_quotient_bounds",
    "distance_to_box",
    "find_admissible_rays",
    "fixed_point_set",
    "from_dict",
    "integrate",
    "integrate_batch",
    "invariant_box",
    "is_strongly_connected",
    "load_config",
    "lyapunov_V",
    "lyapunov_Y",
    "monitor_trajectory",
    "residual",
    "rhs",
    "rhs_batch",
    "row_stats",
    "run",
    "scenario_by_name",
    "sector_membership",
    "seed_stream",
    "solve_equilibrium",
    "system_from_dict",
    "system_to_dict",
    "theta_hull",
    "uniqueness_probe",
]

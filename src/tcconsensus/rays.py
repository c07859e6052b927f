"""Box-and-ray sector geometry and the scalar monitor functions built on it.

A :class:`BoxRaySpec` bundles a box ``[box_lo, box_hi]``, an anchor
``anchor`` inside it, and two ray slopes ``k1`` (left ray, on
``(-inf, anchor]``) and ``k2`` (right ray, on ``[anchor, +inf)``). The rays

    L1(x) = k1 * (x - anchor) + anchor
    L2(x) = k2 * (x - anchor) + anchor

bracket admissible constraint functions outside the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

PRODUCT_TOL = 1e-12


@dataclass(frozen=True)
class BoxRaySpec:
    box_lo: float
    box_hi: float
    anchor: float
    k1: float
    k2: float

    def __post_init__(self):
        if not (self.box_lo <= self.anchor <= self.box_hi):
            raise ValueError(
                f"anchor {self.anchor} outside box [{self.box_lo}, {self.box_hi}]"
            )

    def l1(self, x: float) -> float:
        return self.k1 * (x - self.anchor) + self.anchor

    def l2(self, x: float) -> float:
        return self.k2 * (x - self.anchor) + self.anchor

    @property
    def slope_product(self) -> float:
        return self.k1 * self.k2


@dataclass(frozen=True)
class EquilibriumRaySpec:
    """Parallel-ray slopes around an equilibrium: both negative, product one."""

    k_e1: float
    k_e2: float

    def __post_init__(self):
        if not (self.k_e1 < 0 and self.k_e2 < 0):
            raise ValueError("equilibrium ray slopes must be negative")
        if abs(self.k_e1 * self.k_e2 - 1.0) > PRODUCT_TOL:
            raise ValueError("equilibrium ray slope product must be 1")


Y_TERMS = ("box", "xM_minus_lo", "hi_minus_xm", "right_ray", "left_ray")


def lyapunov_Y(state, spec: BoxRaySpec) -> tuple:
    """Max-of-five monitor; non-increasing along admissible trajectories.

    Returns ``(value, term)`` where ``term`` names the attaining entry.
    Ties resolve in ``Y_TERMS`` order, so the box term wins ties. For a
    stack of states, agents on the last axis, both are arrays over the
    leading axes.
    """
    x = np.asarray(state, dtype=float)
    x_m, x_M = x.min(axis=-1), x.max(axis=-1)
    terms = np.stack(np.broadcast_arrays(
        spec.box_hi - spec.box_lo,
        x_M - spec.box_lo,
        spec.box_hi - x_m,
        (1.0 - spec.k2) * (x_M - spec.anchor),
        (1.0 - spec.k1) * (spec.anchor - x_m),
    ))
    best = terms.argmax(axis=0)  # the first maximum: earlier terms win ties
    value = np.take_along_axis(terms, best[None], axis=0)[0]
    if x.ndim == 1:
        return float(value), Y_TERMS[best]
    return value, np.asarray(Y_TERMS)[best]


def lyapunov_V(state, equilibrium, spec: EquilibriumRaySpec):
    """Max over agents of the two-sided weighted error around ``equilibrium``;
    an array over the leading axes for a stack of states, agents last."""
    x = np.asarray(state, dtype=float)
    e = np.asarray(equilibrium, dtype=float)
    if x.shape[-1:] != e.shape:
        raise DimensionMismatchError(
            f"state shape {x.shape} != equilibrium shape {e.shape}"
        )
    eps = x - e
    left = (1.0 - spec.k_e1) * (-eps)
    right = (1.0 - spec.k_e2) * eps
    value = np.maximum(left, right).max(axis=-1)
    return float(value) if x.ndim == 1 else value


def distance_to_box(state, box_lo: float, box_hi: float):
    """Euclidean distance from ``state`` to the box ``[box_lo, box_hi]^n``;
    an array over the leading axes for a stack of states, agents last."""
    if box_lo > box_hi:
        raise ValueError("box_lo must not exceed box_hi")
    x = np.asarray(state, dtype=float)
    excess = np.maximum(box_lo - x, 0.0) + np.maximum(x - box_hi, 0.0)
    value = np.sqrt((excess**2).sum(axis=-1))
    return float(value) if x.ndim == 1 else value

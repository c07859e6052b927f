"""Catalog of per-edge transmission constraint functions.

Each variant is an immutable scalar map with extras needed by the
verification machinery: an exact :class:`PiecewiseLinear` form where one
exists, fixed-point sets, difference-quotient bounds, and sector-membership
checks against a :class:`~tcconsensus.rays.BoxRaySpec`.

Arbitrary user closures are deliberately unsupported: every variant here
serializes to a tagged record and has either an exact fixed-point set or an
outer set of it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    UnknownConstraintVariantError,
    UnresolvableEnclosureError,
    ValidationError,
)
from .graph import NUMBER, check_numbers
from .intervals import IntervalSet
from .rays import BoxRaySpec

STRICT_MARGIN = 1e-12
BISECTION_FP_TOL = 1e-8  # outer radius of each scanned fixed-point piece
SCAN_RESOLUTION = 1e-3  # largest step of the fixed-point sign scan
SCAN_MAX_SAMPLES = 2**20  # largest fixed-point scan; past it the set is unresolved
RATIO_GRID = 5e-3  # ray-ratio sample step, relative to the window width
BOX_SAMPLES = 2001  # samples of the box-range check


# ---------------------------------------------------------------------------
# variants


class ConstraintFn:
    """Base class for catalog variants. Instances are immutable values.

    Piecewise-linear variants define ``_make_pwl``; their
    :class:`PiecewiseLinear` form is built once per object and serves both
    :meth:`pwl` and :meth:`eval_array`. The others define ``_eval_direct``
    instead. Every variant keeps a scalar :meth:`evaluate`, written from its
    own formula, as the reference.
    """

    variant: str = ""
    is_gate: bool = False

    def evaluate(self, x: float) -> float:
        raise NotImplementedError

    def _make_pwl(self) -> PiecewiseLinear | None:
        return None

    def _eval_direct(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def _rep(self) -> PiecewiseLinear | None:
        return self._make_pwl()

    @cached_property
    def _fixed_points(self) -> IntervalSet:
        return _fixed_points_in(self, IntervalSet.reals())

    def pwl(self) -> PiecewiseLinear | None:
        return self._rep

    def eval_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rep = self._rep
        return rep.eval_array(x) if rep is not None else self._eval_direct(x)

    def bounded_range(self):
        p = self.pwl()
        return p.bounded_range() if p is not None else None

    def envelope(self):
        """A linear envelope ``(s, c)``: ``|f(x) - s*x| <= c`` for every
        ``x``, or ``None``. A range ``[lo, hi]`` gives ``s = 0``."""
        p = self.pwl()
        if p is not None:
            return p.envelope()
        rng = self.bounded_range()
        return None if rng is None else (0.0, max(-rng[0], rng[1]))

    def to_dict(self) -> dict:
        out = {"variant": self.variant}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, ConstraintFn):
                v = v.to_dict()
            elif isinstance(v, tuple):
                v = [list(k) if isinstance(k, tuple) else k for k in v]
            out[f.name] = v
        return out


@dataclass(frozen=True)
class Identity(ConstraintFn):
    variant = "identity"

    def evaluate(self, x: float) -> float:
        return x

    def _make_pwl(self):
        return PiecewiseLinear(((0.0, 0.0),), 1.0, 1.0)


@dataclass(frozen=True)
class Affine(ConstraintFn):
    variant = "affine"
    k: float
    m: float = 0.0

    def evaluate(self, x: float) -> float:
        return self.k * x + self.m

    def _make_pwl(self):
        return PiecewiseLinear(((0.0, self.m),), self.k, self.k)


@dataclass(frozen=True)
class Saturation(ConstraintFn):
    variant = "saturation"
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("saturation bounds out of order")

    def evaluate(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def _make_pwl(self):
        if self.lo == self.hi:
            return PiecewiseLinear(((self.lo, self.lo),))
        return PiecewiseLinear(((self.lo, self.lo), (self.hi, self.hi)))


@dataclass(frozen=True)
class IntervalProjection(ConstraintFn):
    """Identity on ``[p, q]``; outside, contracts toward the nearer end with
    rate ``rho``: ``rho*x + (1-rho)*q`` above ``q``, mirrored below ``p``."""

    variant = "interval_projection"
    p: float
    q: float
    rho: float

    def __post_init__(self):
        if self.p > self.q:
            raise ValueError("interval ends out of order")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("contraction rate must be in (0, 1)")

    def evaluate(self, x: float) -> float:
        if x > self.q:
            return self.rho * x + (1.0 - self.rho) * self.q
        if x < self.p:
            return self.rho * x + (1.0 - self.rho) * self.p
        return x

    def _make_pwl(self):
        if self.p == self.q:
            return PiecewiseLinear(((self.p, self.p),), self.rho, self.rho)
        return PiecewiseLinear(((self.p, self.p), (self.q, self.q)), self.rho, self.rho)


@dataclass(frozen=True)
class ScaledSine(ConstraintFn):
    """``amplitude * sin(x + phase)``."""

    variant = "scaled_sine"
    derivative_bounds_attained = False  # no chord attains an isolated extreme
    amplitude: float
    phase: float = 0.0

    def evaluate(self, x: float) -> float:
        return self.amplitude * math.sin(x + self.phase)

    @cached_property
    def _operands(self):  # 0-d arrays: numpy 2 is slower on a float (NEP 50)
        return np.array(self.amplitude), np.array(self.phase)

    def _eval_direct(self, x):
        return self._operands[0] * np.sin(x + self._operands[1])

    def bounded_range(self):
        a = abs(self.amplitude)
        return -a, a

    def derivative_range(self, lo: float, hi: float) -> tuple[float, float]:
        """Exact range of the derivative ``amplitude*cos(x+phase)`` on
        ``[lo, hi]``; equals the closure of the chord-slope range there."""
        a = self.amplitude
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi - lo >= 2 * math.pi:
            return -abs(a), abs(a)
        c_lo, c_hi = _cos_range(lo + self.phase, hi + self.phase)
        vals = (a * c_lo, a * c_hi)
        return min(vals), max(vals)


def _cos_range(lo: float, hi: float) -> tuple[float, float]:
    vals = [math.cos(lo), math.cos(hi)]
    # critical points k*pi inside [lo, hi]
    k = math.ceil(lo / math.pi)
    while k * math.pi <= hi:
        vals.append(1.0 if k % 2 == 0 else -1.0)
        k += 1
    return min(vals), max(vals)


@dataclass(frozen=True)
class PiecewiseLinear(ConstraintFn):
    """Continuous piecewise-linear map given by knots ``(x, y)`` with linear
    extension slopes beyond the first/last knot.

    This is the exact form :meth:`ConstraintFn.pwl` returns for every
    piecewise-linear variant; its own :meth:`pwl` is the object itself. The
    knot coordinates are stored as floats and must be finite, with strictly
    increasing ``x`` (``ValueError`` if not); the tail slopes are kept as
    given. ``xs`` and ``ys`` are the knot columns.
    """

    variant = "piecewise_linear"
    knots: tuple[tuple[float, float], ...]
    left_slope: float = 0.0
    right_slope: float = 0.0

    def __post_init__(self):
        knots = tuple((float(a), float(b)) for a, b in self.knots)
        xs, ys = tuple(k[0] for k in knots), tuple(k[1] for k in knots)
        if not all(map(math.isfinite, (*xs, *ys))):
            raise ValueError("knot coordinates must be finite")
        if not xs or any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot x-coordinates must be non-empty and strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "_axs", np.asarray(xs, dtype=np.float64))
        # per-piece slope/intercept tables indexed by searchsorted bin
        pieces = self.pieces()
        object.__setattr__(
            self, "_slopes", np.array([p[2] for p in pieces], dtype=np.float64)
        )
        object.__setattr__(
            self, "_intercepts", np.array([p[3] for p in pieces], dtype=np.float64)
        )

    def pwl(self) -> PiecewiseLinear:
        return self

    def pieces(self) -> list[tuple[float, float, float, float]]:
        """Affine pieces ``(a, b, slope, intercept)`` covering the real line."""
        xs, ys = self.xs, self.ys
        out = [
            (
                -math.inf,
                xs[0],
                self.left_slope,
                ys[0] - self.left_slope * xs[0],
            )
        ]
        for i in range(len(xs) - 1):
            a, b = xs[i], xs[i + 1]
            slope = (ys[i + 1] - ys[i]) / (b - a)
            out.append((a, b, slope, ys[i] - slope * a))
        out.append(
            (
                xs[-1],
                math.inf,
                self.right_slope,
                ys[-1] - self.right_slope * xs[-1],
            )
        )
        return out

    def evaluate(self, x: float) -> float:
        xs, ys = self.xs, self.ys
        if x <= xs[0]:
            return ys[0] + self.left_slope * (x - xs[0])
        if x >= xs[-1]:
            return ys[-1] + self.right_slope * (x - xs[-1])
        i = bisect.bisect_right(xs, x) - 1
        t = (x - xs[i]) / (xs[i + 1] - xs[i])
        return ys[i] + t * (ys[i + 1] - ys[i])

    def eval_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = self._axs.searchsorted(x, side="right")
        return self._slopes[idx] * x + self._intercepts[idx]

    def fixed_point_set(self) -> IntervalSet:
        found = []
        for a, b, slope, intercept in self.pieces():
            if slope == 1.0:
                if intercept == 0.0:
                    found.append((a, b))
                continue
            root = intercept / (1.0 - slope)
            if a - 1e-15 <= root <= b + 1e-15:
                root = min(max(root, a), b)
                found.append((root, root))
        return IntervalSet.from_pieces(found)

    def slope_range(
        self, hull_lo: float, hull_hi: float, exclude_identity: bool = False
    ):
        """Min/max piece slope over pieces overlapping ``[hull_lo, hull_hi]``.

        Chord slopes between any two points of the hull are convex
        combinations of piece slopes, so these extremes are exact bounds.
        Returns ``(lo, hi, lo_attained, hi_attained)`` or ``None`` when
        ``exclude_identity`` leaves no piece to attain a bound on.
        """
        lo = math.inf
        hi = -math.inf
        lo_att = hi_att = False
        any_non_identity = False
        for a, b, slope, intercept in self.pieces():
            if min(b, hull_hi) - max(a, hull_lo) <= 0:
                continue
            is_identity = slope == 1.0 and intercept == 0.0
            attainable = not (exclude_identity and is_identity)
            if attainable:
                any_non_identity = True
            if slope < lo:
                lo, lo_att = slope, attainable
            elif slope == lo and attainable:
                lo_att = True
            if slope > hi:
                hi, hi_att = slope, attainable
            elif slope == hi and attainable:
                hi_att = True
        if exclude_identity and not any_non_identity:
            return None
        return lo, hi, lo_att, hi_att

    def bounded_range(self):
        if self.left_slope == 0.0 and self.right_slope == 0.0:
            return min(self.ys), max(self.ys)
        return None

    def envelope(self):
        """``(s, c)`` with ``|f(x) - s*x| <= c`` for every ``x`` when both
        tails have slope ``s`` (``f(x) - s*x`` is then constant on each
        tail, so ``c`` is its largest magnitude at a knot); else ``None``."""
        s = self.left_slope
        if s != self.right_slope:
            return None
        return s, max(abs(y - s * x) for x, y in zip(self.xs, self.ys))


@dataclass(frozen=True)
class GatedIdentity(ConstraintFn):
    """Identity transmission gated by an accepted interval.

    Evaluation is total (returns ``x``); the dynamics module drops the whole
    edge contribution when the sender state falls outside the accepted
    interval. Its kernel compiles ``lo`` and ``hi`` into bounds per table
    row and compares them as :meth:`gate_mask` does, which stays the array
    reference: open on ``lo <= x <= hi``, shut on NaN.
    """

    variant = "gated_identity"
    lo: float
    hi: float
    is_gate = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("gate interval out of order")

    def evaluate(self, x: float) -> float:
        return x

    def gate_mask(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x >= self.lo) & (x <= self.hi)

    def _make_pwl(self):
        return PiecewiseLinear(((0.0, 0.0),), 1.0, 1.0)


def _pchip_coefficients(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Per-piece cubic coefficients ``(c0, c1, c2, c3)`` of the pchip
    interpolant, as rows of a ``(4, len(xs) - 1)`` array; on piece ``i`` the
    value is ``c0*s**3 + c1*s**2 + c2*s + c3`` with ``s = x - xs[i]``.

    Knot slopes follow Fritsch & Carlson (1980): the weighted harmonic mean
    of the neighbouring secants, zero where they differ in sign or one is
    zero; the ends take the one-sided three-point estimate, kept shape
    preserving; two samples take the secant at both. The arithmetic is that
    of ``scipy.interpolate.PchipInterpolator``, so values agree bitwise.
    """
    h = np.diff(xs)
    m = np.diff(ys) / h
    if len(xs) == 2:
        d = np.array([m[0], m[0]])
    else:
        d = np.zeros_like(ys)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        keep = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][keep] = 1.0 / whmean[keep]
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    # ``+ 0.0`` turns a -0.0 sample into 0.0, as PPoly's sum starting at 0.0 does
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], ys[:-1] + 0.0))


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass(frozen=True)
class Tabulated(ConstraintFn):
    """Samples plus an interpolation rule, clamped to the end samples outside
    ``[xs[0], xs[-1]]``.

    ``linear`` interpolation is exactly piecewise linear. ``pchip`` is the
    shape-preserving piecewise cubic of :func:`_pchip_coefficients`,
    evaluated per piece as ``((c3 + c2*s) + c1*s**2) + c0*(s**2*s)``, the
    operation order of scipy's ``PPoly``. Its chord slopes come from
    :meth:`derivative_range`; its fixed points and sector conditions are
    still sampled (see :func:`_scan_fixed_points`).
    """

    variant = "tabulated"
    derivative_bounds_attained = True  # a pchip piece may be linear
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    interpolation: str = "linear"

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(float(v) for v in self.xs))
        object.__setattr__(self, "ys", tuple(float(v) for v in self.ys))
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("need matching xs/ys with at least two samples")
        if self.interpolation not in ("linear", "pchip"):
            raise ValueError(f"unknown interpolation rule {self.interpolation!r}")
        # building the linear rule's form checks the samples as knots; for
        # that rule it is the cached form itself
        form = PiecewiseLinear(tuple(zip(self.xs, self.ys)))
        if self.interpolation == "linear":
            object.__setattr__(self, "_rep", form)
        else:
            xs, ys = np.array(self.xs), np.array(self.ys)
            object.__setattr__(self, "_axs", xs)
            object.__setattr__(self, "_coef", _pchip_coefficients(xs, ys))

    def evaluate(self, x: float) -> float:
        if self.interpolation == "linear":
            return self._rep.evaluate(x)
        xs = self.xs
        x = min(max(x, xs[0]), xs[-1])
        i = min(bisect.bisect_right(xs, x), len(xs) - 1) - 1
        c0, c1, c2, c3 = self._coef[:, i].tolist()
        s = x - xs[i]
        s2 = s * s
        return ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)

    def _eval_direct(self, x):
        xs = self._axs
        x = np.clip(x, xs[0], xs[-1])
        i = np.minimum(xs.searchsorted(x, side="right"), len(xs) - 1) - 1
        c0, c1, c2, c3 = self._coef[:, i]
        s = x - xs[i]
        s2 = s * s
        return ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)

    def bounded_range(self):
        return min(self.ys), max(self.ys)

    def derivative_range(self, lo: float, hi: float) -> tuple[float, float]:
        """Range of the pchip derivative ``3*c0*s**2 + 2*c1*s + c2`` on
        ``[lo, hi]`` (ends may be infinite or equal): its values at the ends
        of each overlapped piece and at the vertex ``-c1/(3*c0)`` clipped
        into it, plus ``0`` for a clamped tail the region reaches. These are
        float evaluations with no rounding pad, as :func:`_cos_range` is."""
        xs = self._axs
        a, b = np.maximum(xs[:-1], lo), np.minimum(xs[1:], hi)
        on = a <= b
        c0, c1, c2, _ = self._coef[:, on]
        s_lo, s_hi = (a - xs[:-1])[on], (b - xs[:-1])[on]
        vertex = np.divide(-c1, 3.0 * c0, out=s_lo.copy(), where=c0 != 0.0)
        s = np.stack((s_lo, s_hi, np.clip(vertex, s_lo, s_hi)))
        vals = (c2 + 2.0 * c1 * s + 3.0 * c0 * (s * s)).ravel().tolist()
        if lo < xs[0] or hi > xs[-1]:
            vals.append(0.0)
        return min(vals), max(vals)


@dataclass(frozen=True)
class Mix(ConstraintFn):
    """Pointwise convex combination ``weight*first + (1-weight)*second``."""

    variant = "mix"
    first: ConstraintFn
    second: ConstraintFn
    weight: float = 0.5

    def __post_init__(self):
        if not (
            isinstance(self.first, ConstraintFn) and isinstance(self.second, ConstraintFn)
        ):
            raise TypeError("mix members must be constraint functions")
        if self.first.is_gate or self.second.is_gate:
            # a gate drops the whole edge; a mixture has no edge to drop
            raise ValueError("mix members must not be gated")
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError("mix weight must lie in [0, 1]")

    def evaluate(self, x: float) -> float:
        w = self.weight
        return w * self.first.evaluate(x) + (1.0 - w) * self.second.evaluate(x)

    def _make_pwl(self):
        p1 = self.first.pwl()
        p2 = self.second.pwl()
        if p1 is None or p2 is None:
            return None
        w = self.weight
        xs = sorted(set(p1.xs) | set(p2.xs))
        return PiecewiseLinear(
            tuple((x, w * p1.evaluate(x) + (1.0 - w) * p2.evaluate(x)) for x in xs),
            w * p1.left_slope + (1.0 - w) * p2.left_slope,
            w * p1.right_slope + (1.0 - w) * p2.right_slope,
        )

    @cached_property
    def _operands(self):  # 0-d arrays: numpy 2 is slower on a float (NEP 50)
        return np.array(self.weight), np.array(1.0 - self.weight)

    def _eval_direct(self, x):
        w, rest = self._operands
        return w * self.first.eval_array(x) + rest * self.second.eval_array(x)

    def bounded_range(self):
        r1 = self.first.bounded_range()
        r2 = self.second.bounded_range()
        if r1 is None or r2 is None:
            return None
        w = self.weight
        return (
            w * r1[0] + (1.0 - w) * r2[0],
            w * r1[1] + (1.0 - w) * r2[1],
        )

    def envelope(self):
        e1 = self.first.envelope()
        e2 = self.second.envelope()
        if e1 is None or e2 is None:
            return None
        w = self.weight
        return w * e1[0] + (1.0 - w) * e2[0], w * e1[1] + (1.0 - w) * e2[1]


# ---------------------------------------------------------------------------
# serialization

_VARIANTS = {
    cls.variant: cls
    for cls in (
        Identity,
        Affine,
        Saturation,
        IntervalProjection,
        ScaledSine,
        PiecewiseLinear,
        GatedIdentity,
        Tabulated,
        Mix,
    )
}


def from_dict(record: dict) -> ConstraintFn:
    """Build a variant from its ``to_dict`` record; nested ``mix`` members
    are records too. Keys other than ``variant`` and the variant's fields
    are rejected. Each parameter must have its field's shape, and each
    number in it must be finite (:func:`~tcconsensus.graph.check_numbers`):
    ``true``, ``"0.5"``, ``null``, ``NaN``, ``10**400`` and misshapen lists
    raise ``ValidationError`` naming the field, and so does a record that
    is not an object."""
    if not isinstance(record, dict):
        raise ValidationError(f"a constraint record must be an object, got {record!r}")
    rec = dict(record)
    name = rec.pop("variant", None)
    cls = _VARIANTS.get(name)
    if cls is None:
        raise UnknownConstraintVariantError(f"unknown constraint variant {name!r}")
    kinds = {f.name: f.type for f in fields(cls)}  # annotations, as strings
    unknown = set(rec) - set(kinds)
    if unknown:
        raise ValidationError(f"unknown {name} keys: {sorted(unknown)}")
    kwargs = {}
    for key, v in rec.items():
        what = f"{name} {key}"
        if kinds[key] == "ConstraintFn":
            if not isinstance(v, dict):
                raise ValidationError(f"{what} must be a constraint record, got {v!r}")
            v = from_dict(v)
        elif kinds[key] != "str":
            numbers = _numbers(v, kinds[key], what)
            check_numbers(numbers, what, NUMBER, ValidationError)
            try:
                finite = all(map(math.isfinite, numbers))
            except OverflowError as err:  # an integer beyond the float range
                raise ValidationError(f"{what} out of range: {err}") from err
            if not finite:
                raise ValidationError(f"{what} must be finite, got {v!r}")
        kwargs[key] = v
    return cls(**kwargs)


def _numbers(v, kind: str, what: str) -> list:
    """The entries of a parameter annotated ``kind``, once its list shape
    is checked: samples are a list, knots a list of pairs."""
    if kind == "float":
        return [v]
    if not isinstance(v, list):
        raise ValidationError(f"{what} must be a list, got {v!r}")
    if kind == "tuple[float, ...]":
        return v
    if not all(isinstance(p, list) and len(p) == 2 for p in v):
        raise ValidationError(f"{what} must be a list of [x, y] pairs, got {v!r}")
    return list(chain.from_iterable(v))


# ---------------------------------------------------------------------------
# operations


def fixed_point_set(f: ConstraintFn, domain: IntervalSet | None = None) -> IntervalSet:
    """Fixed points of ``f`` restricted to ``domain`` (whole line by default).

    Exact for piecewise-linear-representable variants and for gates (whose
    fixed set is the accepted interval); otherwise an outer set, padded once
    by ``BISECTION_FP_TOL`` (:func:`_scan_fixed_points`). Either way the
    result is a plain set that callers intersect as it is. The whole-line
    set is computed once per function object and cached.
    """
    if domain is None:
        return f._fixed_points
    return _fixed_points_in(f, domain)


def _fixed_points_in(f: ConstraintFn, domain: IntervalSet) -> IntervalSet:
    if domain.is_empty:
        return IntervalSet.empty()
    if isinstance(f, GatedIdentity):
        return IntervalSet.closed(f.lo, f.hi).intersect(domain)
    rep = f.pwl()
    if rep is not None:
        return rep.fixed_point_set().intersect(domain)
    return _scan_fixed_points(f, domain)


def _scan_window(f: ConstraintFn, domain: IntervalSet) -> tuple[float, float]:
    lo, hi = domain.hull()
    rng = f.bounded_range()
    if rng is not None:
        # fixed points satisfy x = f(x), so they lie inside the range of f
        lo = max(lo, rng[0] - 1e-9)
        hi = min(hi, rng[1] + 1e-9)
    elif (env := f.envelope()) is not None and env[0] != 1.0:
        # |f(x) - x| >= |1 - s|*|x| - c, so fixed points have |x| <= c/|1 - s|
        s, c = env
        r = c / abs(1.0 - s) * (1.0 + 1e-9) + 1e-9
        lo = max(lo, -r)
        hi = min(hi, r)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UnresolvableEnclosureError(
            "cannot bound the fixed-point search window for this variant"
        )
    return lo, hi


def _scan_fixed_points(f: ConstraintFn, domain: IntervalSet) -> IntervalSet:
    """Fixed points of a variant without a piecewise-linear form, as an
    outer set padded once by ``BISECTION_FP_TOL``.

    ``g(x) = f(x) - x`` is sampled on a grid of step at most ``SCAN_RESOLUTION``
    (at least 16 samples) over :func:`_scan_window`, the part of ``domain``
    inside the range of ``f`` or, for an unbounded range, inside the bound
    that the linear envelope (:meth:`ConstraintFn.envelope`) puts on fixed
    points. Each maximal run of samples with ``|g| <= 1e-12`` becomes a
    piece from its first to its last sample; each sign change between two
    neighbouring samples off those runs is refined by :func:`_bisect_root`.
    Every piece is widened by ``BISECTION_FP_TOL`` on both sides, as a
    bisected root need not be the true one, and the result clipped to
    ``domain``. A root where ``g`` touches zero without changing sign
    between samples, or a pair of roots inside one grid step, is missed. A
    window that needs more than ``SCAN_MAX_SAMPLES`` samples raises
    :class:`UnresolvableEnclosureError` naming the window and the cap,
    before any sample is made.
    """
    lo, hi = _scan_window(f, domain)
    if hi < lo:
        return IntervalSet.empty()
    if hi == lo:
        pieces = [(lo, lo)] if abs(f.evaluate(lo) - lo) <= BISECTION_FP_TOL else []
    else:
        n = max(int(math.ceil((hi - lo) / SCAN_RESOLUTION)) + 1, 16)
        if n > SCAN_MAX_SAMPLES:
            raise UnresolvableEnclosureError(
                f"the fixed-point scan of [{lo!r}, {hi!r}] needs {n} samples, "
                f"more than the cap of {SCAN_MAX_SAMPLES}"
            )
        xs = np.linspace(lo, hi, n)
        g = f.eval_array(xs) - xs
        flat = np.abs(g) <= 1e-12
        # the flat runs start and end (exclusive) where the padded mask toggles
        toggles = np.flatnonzero(np.diff(flat, prepend=False, append=False))
        pieces = list(zip(xs[toggles[::2]], xs[toggles[1::2] - 1]))
        crossing = ~flat[:-1] & ~flat[1:] & (g[:-1] * g[1:] < 0)
        for i in np.flatnonzero(crossing).tolist():
            root = _bisect_root(lambda x: f.evaluate(x) - x, *xs[i : i + 2].tolist())
            pieces.append((root, root))
    tol = BISECTION_FP_TOL
    out = IntervalSet.from_pieces((a - tol, b + tol) for a, b in pieces)
    return out.intersect(domain)


def _bisect_root(g, a: float, b: float) -> float:
    """A root of the scalar ``g`` in ``[a, b]``, where ``g(a)`` and ``g(b)``
    have opposite signs.

    Halves the bracket until ``g`` is exactly zero at the midpoint or the
    midpoint equals an endpoint, i.e. ``a`` and ``b`` are adjacent floats;
    then returns the endpoint with the smaller ``|g|``: a root with
    ``g == 0`` or a sign change of ``g`` to a neighbouring float, after at
    most about 1065 halvings of the scan's brackets (``w <= 1e-3``). Raises
    :class:`UnresolvableEnclosureError` when ``g`` does not confirm the sign
    change at the ends.
    """
    ga, gb = g(a), g(b)
    if not (ga < 0.0 < gb or gb < 0.0 < ga):
        raise UnresolvableEnclosureError(
            f"scalar evaluation does not confirm the sign change on [{a!r}, {b!r}]"
        )
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return a if abs(ga) <= abs(gb) else b
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm < 0.0) == (ga < 0.0):
            a, ga = mid, gm
        else:
            b, gb = mid, gm


@dataclass(frozen=True)
class QuotientBounds:
    """Bounds on the difference quotient ``(f(x+w)-f(x))/w`` over a region.

    ``lo_attained``/``hi_attained`` say whether a chord may attain the
    bound; ``True`` is conservative, as it can only cost a certificate.
    """

    lo: float
    hi: float
    lo_attained: bool
    hi_attained: bool


def difference_quotient_bounds(
    f: ConstraintFn,
    region: IntervalSet | None = None,
    exclude_fixed: bool = False,
) -> QuotientBounds | None:
    """Chord-slope bounds for ``f`` with both endpoints in ``region``.

    Piece slopes over the region hull for piecewise-linear forms; the
    weighted members' bounds for a non-PWL ``Mix``, attained only where
    both members' are; ``f.derivative_range`` over the hull (mean value
    theorem) for the rest. ``exclude_fixed`` restricts a piecewise-linear
    form's attainment flags to chords anchored off the fixed-point set (the
    strict uniqueness hypothesis) and gives ``None`` when the whole region
    is fixed (vacuous); other forms keep their conservative flags.
    """
    if region is None:
        region = IntervalSet.reals()
    if region.is_empty:
        return None
    hull_lo, hull_hi = region.hull()

    rep = f.pwl()
    if rep is not None:
        r = rep.slope_range(hull_lo, hull_hi, exclude_identity=exclude_fixed)
        return None if r is None else QuotientBounds(*r)

    if isinstance(f, Mix):
        b1 = difference_quotient_bounds(f.first, region)
        b2 = difference_quotient_bounds(f.second, region)
        w = f.weight
        return QuotientBounds(
            w * b1.lo + (1.0 - w) * b2.lo,
            w * b1.hi + (1.0 - w) * b2.hi,
            (w == 0.0 or b1.lo_attained) and (w == 1.0 or b2.lo_attained),
            (w == 0.0 or b1.hi_attained) and (w == 1.0 or b2.hi_attained),
        )

    lo, hi = f.derivative_range(hull_lo, hull_hi)
    att = f.derivative_bounds_attained
    return QuotientBounds(lo, hi, att, att)


# ---------------------------------------------------------------------------
# sector membership


@dataclass(frozen=True)
class SectorVerdict:
    passed: bool
    first_violation: float | None
    exact: bool


@dataclass(frozen=True)
class SectorReport:
    lower: SectorVerdict
    box: SectorVerdict
    upper: SectorVerdict

    @property
    def passed(self) -> bool:
        return self.lower.passed and self.box.passed and self.upper.passed


@dataclass(frozen=True)
class RatioRange:
    """Range of the ray ratio ``r(x) = (f(x) - anchor) / (x - anchor)`` on one
    side of the box. ``inf_at``/``sup_at`` is the point attaining each extreme,
    or the limit it is approached at: the box edge, or ``-inf``/``+inf``."""

    inf: float
    inf_attained: bool
    inf_at: float
    sup: float
    sup_at: float
    exact: bool

    def verdict(self, k: float) -> SectorVerdict:
        """The side's sector condition for ray slope ``k``: ``r <= 1``
        everywhere and ``k < r`` (``k <= inf`` when the infimum is a limit)."""
        m = STRICT_MARGIN
        if self.sup > 1.0 + m:
            return SectorVerdict(False, self.sup_at, self.exact)
        ok = k < self.inf - m if self.inf_attained else k <= self.inf + m
        return SectorVerdict(ok, None if ok else self.inf_at, self.exact)


def ratio_range(
    f: ConstraintFn, box_lo: float, box_hi: float, anchor: float, side: str
) -> RatioRange:
    """Range of the ray ratio of ``f`` below (``side="lower"``, ``x < box_lo``)
    or above (``side="upper"``, ``x > box_hi``) the box.

    Outside the box every sector condition reads off this ratio: below,
    ``x <= f(x)`` iff ``r <= 1`` and ``f(x) < L1(x)`` iff ``k1 < r``; above,
    ``f(x) <= x`` iff ``r <= 1`` and ``L2(x) < f(x)`` iff ``k2 < r``.

    Exact on the whole half-line for piecewise-linear-representable variants:
    on a piece ``s*x + c`` the ratio is ``s + d/(x - anchor)`` with
    ``d = s*anchor + c - anchor``, constant (and attained) when ``d == 0`` and
    strictly monotone otherwise, so its extremes lie at the piece ends. Knots
    inside the region are attained; the box edge and the tails (limit: the
    tail slope) are not. Other variants are sampled, and reported inexact,
    between the box edge and ``anchor -+ horizon`` with
    ``horizon = max(10, 4 * box width)``, at a step of ``RATIO_GRID`` times
    ``2 * horizon`` (at least 8 samples, the edge itself excluded).
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"unknown side {side!r}")
    lower = side == "lower"
    edge = box_lo if lower else box_hi
    rep = f.pwl()
    if rep is None:
        horizon = max(10.0, 4.0 * (box_hi - box_lo))
        step = RATIO_GRID * 2.0 * horizon
        far = anchor - horizon if lower else anchor + horizon
        n = max(int(math.ceil(abs(edge - far) / step)) + 1, 8)
        xs = np.linspace(far, edge, n)[:-1]
        r = (f.eval_array(xs) - anchor) / (xs - anchor)
        i, j = int(r.argmin()), int(r.argmax())
        return RatioRange(r[i], True, xs[i], r[j], xs[j], exact=False)
    ends = []  # (ratio, attained, x) at the ends of each piece inside the region
    for lo, hi, s, c in rep.pieces():
        lo, hi = (lo, min(hi, edge)) if lower else (max(lo, edge), hi)
        if hi <= lo:
            continue
        d = s * anchor + c - anchor
        for x in (lo, hi):
            if d == 0.0 or math.isinf(x):
                v = s
            elif x == anchor:  # the edge is the anchor: r diverges there
                v = math.copysign(math.inf, -d if lower else d)
            else:
                v = s + d / (x - anchor)
            ends.append((v, d == 0.0 or (math.isfinite(x) and x != edge), x))
    inf = min(ends, key=lambda e: (e[0], not e[1]))  # attained wins a tie
    sup = max(ends, key=lambda e: e[0])
    return RatioRange(inf[0], inf[1], inf[2], sup[0], sup[2], exact=True)


def box_violation(f: ConstraintFn, box_lo: float, box_hi: float) -> float | None:
    """The first ``x`` in ``[box_lo, box_hi]`` where ``f(x)`` leaves the box by
    more than ``STRICT_MARGIN``, or ``None`` when ``f`` maps the box into
    itself.

    Exact for piecewise-linear-representable variants: ``f`` is evaluated at
    the box ends and the knots inside, where its extremes over the box lie.
    Other variants are sampled at ``BOX_SAMPLES`` evenly spaced points, so a
    violation between two samples is missed.
    """
    rep = f.pwl()
    if rep is not None:
        inner = {x for x in rep.xs if box_lo < x < box_hi}
        xs = np.array(sorted({box_lo, box_hi} | inner))
    else:
        xs = np.linspace(box_lo, box_hi, BOX_SAMPLES)
    vals = f.eval_array(xs)
    bad = xs[(vals < box_lo - STRICT_MARGIN) | (vals > box_hi + STRICT_MARGIN)]
    return float(bad[0]) if bad.size else None


def sector_membership(f: ConstraintFn, spec: BoxRaySpec) -> SectorReport:
    """Check the three sector conditions of the box-and-ray geometry.

    Lower region ``x < box_lo``: ``x <= f(x) < L1(x)``.
    Box ``[box_lo, box_hi]``: ``box_lo <= f(x) <= box_hi``.
    Upper region ``x > box_hi``: ``L2(x) < f(x) <= x``.

    The box condition is :func:`box_violation` and the ray conditions are
    decided on :func:`ratio_range`; both are exact on the whole line for
    piecewise-linear-representable variants and sampled otherwise, the
    sampling chosen there. Violations are data (reported with a witness
    point, or the limit it is approached at), never errors.
    """
    lo, hi = spec.box_lo, spec.box_hi
    bad = box_violation(f, lo, hi)
    return SectorReport(
        lower=ratio_range(f, lo, hi, spec.anchor, "lower").verdict(spec.k1),
        box=SectorVerdict(bad is None, bad, f.pwl() is not None),
        upper=ratio_range(f, lo, hi, spec.anchor, "upper").verdict(spec.k2),
    )

"""Network dynamics under per-edge transmission constraints.

The state of agent ``i`` evolves as the weighted sum over in-edges of
``a_ij * (f_ji(x_j) - x_i)``, where ``f_ji`` is the constraint attached to
the transmission from ``j`` to ``i``. Gated edges drop their whole
contribution while the sender state is outside the accepted interval.

A :class:`System` is its graph plus one function column, compiled once
into an edge table keyed by distinct function value. Its kernel, prepared
once per batch size (:func:`_prepare`), evaluates the table at a batch of
states and returns the constrained input sum ``num_i = sum_j a_ij
f_ji(x_j)`` and the active in-degree ``den_i = sum_j a_ij`` over the edges
not gated shut. The right-hand side is ``num - x * den``; the equilibrium module's Picard map
is ``num / den``.

Integration is deterministic fixed-step forward integration (RK4 by
default): identical inputs produce bit-identical trajectories. For
discontinuous constraints this selects one of the possibly many solutions;
there is no event detection.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

import numpy as np
from numpy.typing import NDArray

from .constraints import ConstraintFn, Mix
from .errors import (
    DimensionMismatchError,
    MissingWitnessError,
    NonFiniteStateError,
    ValidationError,
)
from .graph import INTEGER, NUMBER, Digraph, as_float, check_numbers, row_stats
from .rays import (
    BoxRaySpec,
    EquilibriumRaySpec,
    distance_to_box,
    lyapunov_Y,
    lyapunov_V,
)


@dataclass(frozen=True, init=False, eq=False)
class System:
    """A digraph of at least one agent plus one constraint per edge, keyed
    ``(sender, receiver)``; a graph without agents is a ``ValidationError``.
    Systems compare and hash by identity, as their graphs do.

    The graph's edge ``e`` carries ``fns[function[e]]``; ``_edges`` keeps
    the function column and the objects, distinct by identity, in the order
    of their first edges, for the report's echo. :attr:`constraints` lists
    the edges in the order they were given. No step builds the graph's
    ``n x n`` matrix. A kernel reads the private attributes below, and no
    others, when it is prepared (:func:`_prepare`).

    - ``distinct`` pairs each function distinct by value with its first
      edge in sorted order; a ``Mix`` is listed as itself.
    - The kernel's table has one row per distinct (member, sender) pair.
      An edge's members are its function, or for a ``Mix`` without a
      piecewise-linear form its members weighted ``w`` and ``1 - w``
      (:func:`_members`). Each member's rows are contiguous, gated members
      last from ``_gate_start``. ``_senders`` holds the rows' senders, and
      ``_identity`` says they are the agents in order.
    - With ``R`` rows and ``K`` the most entries into one agent, a table
      with ``R <= 32 * K`` keeps the dense ``R x n`` weight block
      ``_block``; a wider one keeps receiver slots ``_by_receiver`` (see
      :func:`_receiver_slots`), where the gather-sum costs less. Every
      system of at most 32 agents keeps its block.
    - ``_plain_alpha``, the ungated in-degree as a ``(1, n)`` row, sums the
      edge weights, not the member rows (``a*w + a*(1 - w)`` need not round
      to ``a``), in the order of a table without member rows.
    - The bin table serves every member with a piecewise-linear form. Its
      knots ``_knots`` are those where some member's slope or intercept
      changes, compared bit for bit; inside a bin every such member stays
      on the piece its own search picks, so one bin lookup, offset by the
      row's ``_base``, reads each row's slope and intercept from
      ``_slopes`` and ``_icpts``. Without a live knot, ``_one_piece`` holds
      them as two ``(1, R)`` rows. ``_direct`` lists every other member
      with its rows ``[a, b)``.
    - ``_gate_bounds`` holds the gate rows' accepted intervals as
      ``(1, R - _gate_start)`` rows, compared as
      :meth:`GatedIdentity.gate_mask` compares them, or is ``None``.
    """

    graph: Digraph
    distinct: tuple[tuple[tuple[int, int], ConstraintFn], ...] = field(
        init=False, repr=False
    )

    def __init__(self, graph: Digraph, constraints):
        keys, fns = list(constraints), list(constraints.values())
        order = _edge_order(graph, keys)
        ids = np.fromiter(map(id, fns), dtype=np.uint64, count=len(fns))
        _, obj_first, index = np.unique(ids, return_index=True, return_inverse=True)
        self._compile(graph, index[order], [fns[e] for e in obj_first.tolist()], order)

    @classmethod
    def _from_table(cls, graph, index, objects, order) -> System:
        """The system on ``graph`` whose edge ``e`` carries
        ``objects[index[e]]``: a loader's checked record, its edges given in
        the order ``order`` (see :meth:`_compile`)."""
        self = cls.__new__(cls)
        self._compile(graph, index, objects, order)
        return self

    @cached_property
    def constraints(self) -> Mapping[tuple[int, int], ConstraintFn]:
        """The constraint of each edge, keyed ``(sender, receiver)``, in the
        order the edges were given: a read-only view of the table, derived
        when first read, so a change to the map the system was built from
        changes nothing here."""
        function, fns = self._edges
        at = np.argsort(self._input_order)
        keys = zip(self.graph.senders[at].tolist(), self.graph.receivers[at].tolist())
        view = dict(zip(keys, map(fns.__getitem__, function[at].tolist())))
        return MappingProxyType(view)

    def _compile(self, graph, index, objects, order) -> None:
        """Compile the edge table: the graph's edge ``e`` carries
        ``objects[index[e]]``, ``index`` an integer array, and was given at
        position ``order[e]``. The objects are distinct by identity, and
        each is on some edge."""
        if graph.n == 0:
            raise ValidationError("a system needs at least one agent")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "_input_order", order)
        n = self.n
        senders, receivers, edge_weights = graph.senders, graph.receivers, graph.weight
        # the objects in the order of their first edges
        first = np.full(len(objects), len(index))
        np.minimum.at(first, index, np.arange(len(index)))
        used = np.argsort(first)
        first = first[used]
        fn_rank = np.empty_like(used)
        fn_rank[used] = np.arange(len(used))
        function = fn_rank[index]
        fns = [objects[k] for k in used.tolist()]
        object.__setattr__(self, "_edges", (function, tuple(fns)))

        # the objects merged by value, so a map that reuses a few objects on
        # many edges costs one value hash per object, not per edge; a value
        # is known by its first object, and the first objects follow in the
        # order of their first edges
        first_of_value: dict[ConstraintFn, int] = {}
        value_of_fn = [first_of_value.setdefault(fn, k) for k, fn in enumerate(fns)]
        heads = list(first_of_value.values())
        values = [fns[k] for k in heads]
        head_edges = first[heads]
        keys = zip(senders[head_edges].tolist(), receivers[head_edges].tolist())
        object.__setattr__(self, "distinct", tuple(zip(keys, values)))

        gated = np.array([fn.is_gate for fn in values], dtype=bool)
        by_rank = np.argsort(gated, kind="stable")
        rank = np.empty(len(fns), dtype=np.intp)
        rank[np.array(heads, dtype=np.intp)[by_rank]] = np.arange(len(values))
        edge_rank = rank[value_of_fn][function]

        # the members of each distinct function, in rank order, take span
        # ranks in order of first sight; row r of ``table`` holds the span
        # ranks of function r's members, padded with -1
        parts = [_members(values[k]) for k in by_rank.tolist()]
        members: dict[ConstraintFn, int] = {}
        table = np.full((len(parts), max(map(len, parts), default=0)), -1, np.intp)
        factors = np.zeros(table.shape)
        for r, part in enumerate(parts):
            for c, (fn, factor) in enumerate(part.items()):
                table[r, c] = members.setdefault(fn, len(members))
                factors[r, c] = factor
        # one table entry per edge and member, edge by edge
        entry_edge, col = np.nonzero(table[edge_rank] >= 0)
        entry_rank = edge_rank[entry_edge]
        row_keys, row_of_entry = np.unique(
            table[entry_rank, col] * n + senders[entry_edge], return_inverse=True
        )
        entry_receivers = receivers[entry_edge]
        entry_weights = edge_weights[entry_edge] * factors[entry_rank, col]
        bounds = np.searchsorted(row_keys // n, np.arange(len(members) + 1)).tolist()
        spans = tuple(
            (fn, bounds[r], bounds[r + 1]) for r, fn in enumerate(members)
        )
        gates = int(gated.sum())
        plain = len(spans) - gates
        gate_start = bounds[plain]

        # the scatter: receiver slots for a table of more than 32 rows per
        # entry into its busiest agent (rows <= n * most_in, so only for
        # n > 32), else the dense block
        most_in = np.bincount(entry_receivers, minlength=n).max(initial=0)
        if len(row_keys) > 32 * most_in:
            block = None
            by_slot = np.argsort(entry_receivers * len(row_keys) + row_of_entry)
            rows, to, weight = (
                a[by_slot] for a in (row_of_entry, entry_receivers, entry_weights)
            )
            gate = rows >= gate_start
            by_receiver = (
                _receiver_slots(rows, to, weight, n),
                _receiver_slots(rows[gate] - gate_start, to[gate], weight[gate], n),
            )
        else:
            block = np.zeros((len(row_keys), n))
            block[row_of_entry, entry_receivers] = entry_weights
            by_receiver = None

        # the in-degree of the edges themselves, as a*w + a*(1 - w) need not
        # round to a: np.add.at adds repeated indices in order, here the
        # (function rank, sender) order of a block without member rows, so
        # the sum is that block's column sum, bit for bit
        unexpanded = edge_rank * n + senders
        plain_edges = np.flatnonzero(edge_rank < len(values) - gates)
        plain_edges = plain_edges[np.argsort(unexpanded[plain_edges], kind="stable")]
        plain_alpha = np.zeros(n)
        np.add.at(plain_alpha, receivers[plain_edges], edge_weights[plain_edges])

        # bin table: between two adjacent knots of the union, every
        # piecewise-linear function stays on one piece
        reps = [fn.pwl() for fn, _, _ in spans]
        # a set, not np.unique: on a float array that imports numpy.ma,
        # 15-30 ms of a fresh interpreter's start-up
        knots = np.array(
            sorted({x for rep in reps if rep is not None for x in rep.xs}),
            dtype=np.float64,
        )
        lefts = np.concatenate(([-np.inf], knots))
        slopes = np.zeros((len(spans), len(lefts)))
        icpts = np.zeros((len(spans), len(lefts)))
        for r, rep in enumerate(reps):
            if rep is not None:
                piece = rep._axs.searchsorted(lefts, side="right")
                slopes[r] = rep._slopes[piece]
                icpts[r] = rep._intercepts[piece]
        # only a knot where some member changes piece splits a bin; the
        # columns are compared bit for bit, so a -0.0/+0.0 intercept pair
        # keeps its knot
        bits = np.concatenate((slopes, icpts)).view(np.uint64)
        live = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
        keep = np.concatenate(([True], live))
        knots, slopes, icpts = knots[live], slopes[:, keep], icpts[:, keep]
        base = row_keys // n * slopes.shape[1]
        one_piece = None
        if not knots.size and any(rep is not None for rep in reps):
            one_piece = (slopes.ravel()[base][None, :], icpts.ravel()[base][None, :])
        gate_bounds = None
        if gates:
            # each gate row's accepted interval, compared as
            # GatedIdentity.gate_mask compares it
            width = [b - a for _, a, b in spans[plain:]]
            ends = np.array([(fn.lo, fn.hi) for fn, _, _ in spans[plain:]], np.float64)
            gate_bounds = tuple(np.repeat(ends[:, k], width)[None, :] for k in (0, 1))
        row_senders = row_keys % n
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_base", base[None, :])
        object.__setattr__(self, "_slopes", slopes.ravel())
        object.__setattr__(self, "_icpts", icpts.ravel())
        object.__setattr__(self, "_one_piece", one_piece)
        object.__setattr__(self, "_gate_bounds", gate_bounds)
        object.__setattr__(
            self, "_direct", tuple(s for s, rep in zip(spans, reps) if rep is None)
        )
        object.__setattr__(self, "_senders", row_senders)
        object.__setattr__(
            self,
            "_identity",
            len(row_senders) == n and bool((row_senders == np.arange(n)).all()),
        )
        object.__setattr__(self, "_block", block)
        object.__setattr__(self, "_by_receiver", by_receiver)
        object.__setattr__(self, "_gate_start", gate_start)
        object.__setattr__(self, "_plain_alpha", plain_alpha[None, :])

    @property
    def n(self) -> int:
        return self.graph.n


def _edge_order(graph: Digraph, pairs, columns=None) -> NDArray[np.intp]:
    """The order that sorts ``pairs``, an iterable of ``(sender, receiver)``
    pairs that must be the edges of ``graph``, each once, into the graph's
    edges (:meth:`Digraph.order_of`); ``columns`` are the pairs' senders and
    receivers as two lists, if the caller has them. Else ``ValueError``
    names the first repeated pair or, compared as sets, the missing and
    extra pairs; pairs of other equal types, such as numpy integers, cover
    the edges too."""
    if columns is None and set(map(len, pairs)) == {2}:
        columns = [list(map(itemgetter(k), pairs)) for k in (0, 1)]
    ends = np.array(columns if columns is not None else ())
    if ends.dtype.kind in "iu":
        order = graph.order_of(*ends.astype(np.intp))
        if order is not None:
            return order
    pairs = list(pairs)
    seen = set()
    for pair in pairs:
        if pair in seen:
            raise ValueError(f"repeated constraint record for edge {pair}")
        seen.add(pair)
    edges = set(graph.edges())
    if seen != edges:
        raise ValueError(
            f"constraint map must cover the edge set exactly; "
            f"missing {sorted(edges - seen)}, extra {sorted(seen - edges)}"
        )
    return graph.order_of(*np.array(pairs, dtype=np.intp).reshape(-1, 2).T)


def _members(fn: ConstraintFn) -> dict[ConstraintFn, float]:
    """The table rows of an edge carrying ``fn``, as ``{member: factor}``:
    a ``Mix`` without a piecewise-linear form splits into its members with
    factors ``w`` and ``1 - w``, nested mixes multiplying theirs outer to
    inner. Equal members merge by summing their factors in member order, and
    a member of factor 0 drops out. Any other function is its own member,
    factor 1."""
    out: dict[ConstraintFn, float] = {}
    stack = [(fn, 1.0)]
    while stack:
        f, scale = stack.pop()
        if isinstance(f, Mix) and f.pwl() is None:
            stack += [(f.second, scale * (1.0 - f.weight)), (f.first, scale * f.weight)]
        else:
            out[f] = out.get(f, 0.0) + scale
    return {f: factor for f, factor in out.items() if factor}


def _receiver_slots(rows, receivers, weights, n: int):
    """The entries ``(row, receiver, weight)``, sorted by receiver and then
    row, as receiver slots: arrays ``rows`` and ``weights`` of shape
    ``(K, n)``, ``K`` the largest number of entries into one agent, whose
    column ``i`` lists the entries into agent ``i`` in row order, padded
    with row 0 and weight 0."""
    counts = np.bincount(receivers, minlength=n)
    slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[receivers]
    slot_rows = np.zeros((counts.max(initial=0), n), dtype=np.intp)
    slot_weights = np.zeros(slot_rows.shape)
    slot_rows[slot, receivers] = rows
    slot_weights[slot, receivers] = weights
    return slot_rows, slot_weights


def _gather_sum(V, rows, weights) -> NDArray[np.float64]:
    """``sum_k V[:, rows[k, i]] * weights[k, i]`` for every state and
    receiver ``i``: the scatter of a wide table through its receiver slots
    (see :func:`_receiver_slots`).

    ``V`` is gathered into the slots, shape ``(m, K, n)``, and ``einsum``
    adds each receiver's products to a zero in slot order, that is in row
    order, in any batch; a padding slot adds a zero. A batch is gathered in
    blocks of at most ``2**15`` values, which bounds the temporary.
    """
    step = max(1, 2**15 // rows.size)
    if len(V) > step:
        blocks = [V[i : i + step] for i in range(0, len(V), step)]
        return np.concatenate([_gather_sum(b, rows, weights) for b in blocks])
    return np.einsum("mkn,kn->mn", V.take(rows, axis=1), weights)


_COUNT_FROM = 3072
_COUNT_KNOTS = 16  # below 256: a count fits a uint8
_TAKE_BELOW = 64  # states: X.take gathers faster below, fancy indexing from here
_TILE_MAX = 2**15  # values: a row operand is repeated to the batch up to here


def _count_knots(knots, X) -> NDArray[np.intp]:
    """The number of ``knots`` at or below each state of ``X``, which is
    ``knots.searchsorted(X, side="right")`` for every state but NaN (0
    here, ``len(knots)`` there): one broadcast comparison and one uint8 sum
    over the knot axis, in blocks of at most ``2**16`` comparisons, which
    bounds the boolean temporary, widened to intp once."""
    below = knots[:, None, None]
    step = max(1, 2**16 // (knots.size * X.shape[1]))
    key = np.empty(X.shape, dtype=np.uint8)
    for i in range(0, len(X), step):
        block = (below <= X[i : i + step]).view(np.uint8)
        np.add.reduce(block, axis=0, dtype=np.uint8, out=key[i : i + step])
    return key.astype(np.intp)


def _prepare(system: System, m: int):
    """The kernel of ``system`` for batches ``X`` of ``m`` states: it returns
    the constrained input sums ``num``, shaped as ``X``, and the active
    in-degrees ``den``, shaped as ``X`` when the system has a gate and else
    the in-degree operand, which broadcasts against ``X``. Every choice that
    depends only on the system and ``m`` is made here, from the system's
    attributes as they are now; ``m`` alone decides them. Each row operand
    (``_base``, ``_plain_alpha``, ``_one_piece``, ``_gate_bounds``) is
    repeated to ``m > 1`` rows when that holds at most ``_TILE_MAX``
    values, with the same sums. A gated edge adds neither its value nor
    its weight while its sender is outside the gate, decided as
    :meth:`GatedIdentity.gate_mask` decides it (NaN is shut).

    Each column is bit-identical to its member's ``eval_array``: a
    piecewise-linear row applies the same slope and intercept with the same
    two operations. The rows' states are gathered with ``X.take`` on a wide
    table or below ``_TAKE_BELOW`` states, and by fancy indexing otherwise.
    The bin lookup counts the knots at or below each state
    (:func:`_count_knots`) when at least ``_COUNT_FROM`` states are binned
    over at most ``_COUNT_KNOTS`` knots, and searches them otherwise; a
    wide table bins each agent once and gathers the bins to its rows. The
    count is the search's bin for every state but NaN, which is NaN on any
    piece. A narrow table scatters with ``ndarray.dot``, the same BLAS
    product as ``@`` at less call overhead; a wide one with
    :func:`_gather_sum`.
    """

    def shaped(row):
        if m <= 1 or m * row.shape[1] > _TILE_MAX:
            return row
        return np.repeat(row, m, axis=0)

    senders, knots, slots = system._senders, system._knots, system._by_receiver
    identity, binning = system._identity, knots.size > 0
    take = slots is not None or m < _TAKE_BELOW
    by_agent = slots is not None and not identity  # bin agents, gather bins
    width = system.n if by_agent else len(senders)
    count = m * width >= _COUNT_FROM and knots.size <= _COUNT_KNOTS
    base, slopes, icpts = shaped(system._base), system._slopes, system._icpts
    one_piece = system._one_piece and tuple(map(shaped, system._one_piece))
    direct = [(fn._eval_direct, np.s_[:, a:b]) for fn, a, b in system._direct]
    alpha, gated = shaped(system._plain_alpha), system._gate_bounds is not None
    lo, hi = map(shaped, system._gate_bounds) if gated else (None, None)
    gate_cols = np.s_[:, system._gate_start :]
    block = system._block
    gate_block = None if block is None else block[system._gate_start :]

    def kernel(X):
        XS = X if identity else X.take(senders, axis=1) if take else X[:, senders]
        if binning:
            B = X if by_agent else XS
            key = _count_knots(knots, B) if count else knots.searchsorted(B, side="right")
            if by_agent:
                key = key.take(senders, axis=1)
            key += base
            V = slopes[key] * XS + icpts[key]
        elif one_piece:  # no live knot: one piece per row
            V = one_piece[0] * XS + one_piece[1]
        else:  # no function has a piecewise-linear form: every column is direct
            V = np.empty_like(XS)
        for evaluate, cols in direct:  # members without a piecewise-linear form
            V[cols] = evaluate(XS[cols])
        if not gated:
            num = V.dot(block) if slots is None else _gather_sum(V, *slots[0])
            return num, alpha
        XG = XS[gate_cols]
        # a float mask: numpy's dot and einsum take a bool operand on a slow path
        open_ = ((XG >= lo) & (XG <= hi)).astype(np.float64)
        V[gate_cols] *= open_
        if slots is None:
            return V.dot(block), alpha + open_.dot(gate_block)
        return _gather_sum(V, *slots[0]), alpha + _gather_sum(open_, *slots[1])

    return kernel


def _state_vector(system: System, x) -> NDArray[np.float64]:
    """``x`` as one float state of shape ``(n,)``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (system.n,):
        raise DimensionMismatchError(
            f"state must have shape ({system.n},), got {x.shape}"
        )
    return x


def rhs(system: System, x) -> NDArray[np.float64]:
    """Right-hand side at a single state vector of shape ``(n,)``."""
    x = _state_vector(system, x)
    if not np.all(np.isfinite(x)):
        raise NonFiniteStateError("state vector has non-finite entries")
    return rhs_batch(system, x[None, :])[0]


def rhs_batch(system: System, X: NDArray[np.float64], kernel=None) -> NDArray[np.float64]:
    """Right-hand side for a batch of states, shape ``(m, n)``, by ``kernel``
    (:func:`_prepare`) or a kernel prepared for this call."""
    if kernel is None:
        kernel = _prepare(system, len(X))
    num, den = kernel(X)
    return num - X * den


def default_dt(system: System) -> float:
    """Step size scaled by the largest row sum to keep RK4 well inside its
    stability region."""
    _, a_bar = row_stats(system.graph)
    if a_bar <= 0:
        return 1e-3
    return min(1e-3, 0.1 / a_bar)


@dataclass(frozen=True)
class IntegrationSpec:
    """``dt`` and ``t_final`` are finite numbers, stored as floats, whose
    quotient ``t_final / dt`` is finite, and ``record_stride`` an integer
    (never ``bool``); ``ValueError`` if not, also for an integer beyond the
    float range."""

    dt: float
    t_final: float
    method: str = "rk4"
    record_stride: int | None = None  # None: auto, about 1000 samples

    def __post_init__(self):
        for name in ("dt", "t_final"):
            value = getattr(self, name)
            check_numbers([value], name, NUMBER, ValueError)
            object.__setattr__(self, name, as_float(value))
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError(
                f"t_final must be non-negative and finite, got {self.t_final!r}"
            )
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError(
                f"t_final / dt overflows: dt={self.dt!r}, t_final={self.t_final!r}"
            )
        if self.method not in ("rk4", "euler"):
            raise ValueError(f"unknown method {self.method!r}")
        stride = self.record_stride
        if stride is not None:
            check_numbers([stride], "record_stride", INTEGER, ValueError)
            if stride < 1:
                raise ValueError(f"record_stride must be >= 1, got {stride!r}")

    def steps(self) -> int:
        """Number of fixed steps: ``t_final / dt`` rounded to the nearest
        integer, so the horizon integrated is ``steps() * dt``, which differs
        from ``t_final`` when it is not a multiple of ``dt``."""
        return int(round(self.t_final / self.dt))

    def stride(self) -> int:
        if self.record_stride is not None:
            return self.record_stride
        return max(1, self.steps() // 1000)


@dataclass
class Trajectory:
    times: NDArray[np.float64]
    states: NDArray[np.float64]  # (samples, n)
    dt: float
    channels: dict[str, NDArray[np.float64]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def final_state(self) -> NDArray[np.float64]:
        return self.states[-1]

    def spread(self) -> NDArray[np.float64]:
        return self.states.max(axis=1) - self.states.min(axis=1)

    def to_csv(self) -> str:
        cols = ["t"] + [f"x_{i + 1}" for i in range(self.n)]
        data = [self.times] + [self.states[:, i] for i in range(self.n)]
        for name in ("Y", "V", "dist", "xM", "xm"):
            if name in self.channels:
                cols.append(name)
                data.append(self.channels[name])
        row = ",".join(["%.17g"] * len(cols)).__mod__
        lines = [",".join(cols)]
        lines.extend(map(row, map(tuple, np.column_stack(data).tolist())))
        return "\n".join(lines) + "\n"


@dataclass
class BatchTrajectory:
    """Shared-time trajectories for a batch of initial states, ``(k, m, n)``."""

    times: NDArray[np.float64]
    states: NDArray[np.float64]
    dt: float

    def single(self, run: int) -> Trajectory:
        return Trajectory(self.times, np.array(self.states[:, run, :]), self.dt)


_DIVERGENCE_LIMIT = 1e12
_CHECK_EVERY = 64


def integrate_batch(
    system: System, X0, spec: IntegrationSpec
) -> BatchTrajectory:
    """Fixed-step integration of many initial states in lockstep.

    Every record is checked against ``|x| <= _DIVERGENCE_LIMIT`` (NaN and
    inf fail), and with a stride above ``_CHECK_EVERY = 64`` steps so is
    the state every 64 steps. The checks run in blocks: every 64 steps and
    at the last, one vectorised call covers the states since the previous
    block. The first state that fails raises ``NonFiniteStateError`` with
    its time and the records before it as ``partial``; the run has gone at
    most 63 steps past it. A record count that memory cannot hold is a
    ``ValidationError``.

    The system's kernel is prepared once per call, for this batch size
    (:func:`_prepare`), and every step evaluates it through
    :func:`rhs_batch`."""
    X = np.array(X0, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != system.n:
        raise ValueError(f"X0 must have shape (m, {system.n})")
    if not np.all(np.isfinite(X)):
        raise NonFiniteStateError("non-finite initial state")
    steps = spec.steps()
    stride = spec.stride()
    check = min(stride, _CHECK_EVERY)
    dt = spec.dt
    # 0-d arrays: numpy 2 is slower on a float operand (NEP 50), same bytes
    h, half, sixth = map(np.array, (dt, 0.5 * dt, dt / 6.0))
    euler = spec.method == "euler"
    kernel = _prepare(system, len(X))

    samples = steps // stride + 1 + (steps % stride != 0)
    try:
        rec_times = np.empty(samples)
        rec_states = np.empty(rec_times.shape + X.shape)
    except (MemoryError, ValueError) as err:
        raise ValidationError(
            f"record_stride={stride} keeps {samples} samples of {X.shape} "
            f"states, more than memory holds: {err}"
        ) from err
    rec_times[0] = 0.0
    rec_states[0] = X
    count = checked = end = 1
    for k in range(1, steps + 1):
        if euler:
            X = X + h * rhs_batch(system, X, kernel)
        else:
            k1 = rhs_batch(system, X, kernel)
            k2 = rhs_batch(system, X + half * k1, kernel)
            k3 = rhs_batch(system, X + half * k2, kernel)
            k4 = rhs_batch(system, X + h * k3, kernel)
            # k + k is 2.0 * k exactly, and cheaper
            X = X + sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)
        record = k % stride == 0 or k == steps
        if record or k % check == 0:
            # a state checked between records holds the next record's slot
            # until that record overwrites it
            rec_times[count] = k * dt
            rec_states[count] = X
            end = count + 1
            count += record
        if k % _CHECK_EVERY == 0 or k == steps:
            block = np.abs(rec_states[checked:end])
            # NaN and inf fail the comparison too; an empty batch passes
            if not (block.max(initial=0.0) <= _DIVERGENCE_LIMIT):
                ok = (block <= _DIVERGENCE_LIMIT).reshape(len(block), -1)
                j = checked + int(ok.all(axis=1).argmin())
                raise NonFiniteStateError(
                    f"divergence detected at t={rec_times[j]:.6g}",
                    partial=BatchTrajectory(rec_times[:j], rec_states[:j], dt),
                    time=float(rec_times[j]),
                )
            checked = count
    return BatchTrajectory(rec_times, rec_states, dt)


def integrate(system: System, x0, spec: IntegrationSpec) -> Trajectory:
    """Integrate from one state; see :func:`_state_vector` for its shape."""
    x0 = _state_vector(system, x0)
    try:
        batch = integrate_batch(system, x0[None, :], spec)
    except NonFiniteStateError as err:
        if err.partial is not None:
            err.partial = err.partial.single(0)
        raise
    return batch.single(0)


# ---------------------------------------------------------------------------
# monitors

MONOTONE_TOL_REL = 1e-9
MONOTONE_TOL_ABS = 1e-12
CONSENSUS_THRESHOLD = 1e-3
DECAY_THRESHOLD = 1e-3


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    value: float | None = None
    detail: str = ""


def attach_channels(
    traj: Trajectory,
    box: BoxRaySpec | None = None,
    equilibrium=None,
    eq_spec: EquilibriumRaySpec | None = None,
) -> Trajectory:
    """Compute the monitor channels over all stored samples at once, in
    place, replacing those of an earlier call: ``xM`` and ``xm`` always,
    ``Y`` and ``dist`` with ``box``, ``V`` with ``equilibrium`` and ``eq_spec``.
    """
    states = traj.states
    channels = {"xM": states.max(axis=1), "xm": states.min(axis=1)}
    if box is not None:
        channels["Y"] = lyapunov_Y(states, box)[0]
        channels["dist"] = distance_to_box(states, box.box_lo, box.box_hi)
    if equilibrium is not None and eq_spec is not None:
        channels["V"] = lyapunov_V(states, equilibrium, eq_spec)
    traj.channels = channels
    return traj


def _monotone(series) -> tuple[bool, int | None]:
    """Whether ``series`` never rises by more than the relative and absolute
    tolerances from one sample to the next, and the first sample that does."""
    prev, cur = series[:-1], series[1:]
    up = (cur > prev * (1.0 + MONOTONE_TOL_REL) + MONOTONE_TOL_ABS) & (
        cur > prev + MONOTONE_TOL_ABS
    )
    if not up.any():
        return True, None
    return False, int(up.argmax()) + 1


def _monotone_check(series) -> CheckResult:
    ok, at = _monotone(series)
    return CheckResult(
        ok, float(series[-1]), "" if ok else f"increase at sample {at}"
    )


def monitor_trajectory(
    traj: Trajectory,
    system: System,
    checks,
    box: BoxRaySpec | None = None,
    equilibrium=None,
    eq_spec: EquilibriumRaySpec | None = None,
) -> dict[str, CheckResult]:
    """Run the selected per-trajectory checks; one result per check, by
    name.

    ``checks`` is an iterable drawn from ``{"box_invariance", "y_monotone",
    "v_monotone", "lemma6", "consensus", "distance_decay"}``. Checks that
    need a box/ray spec or an equilibrium raise ``MissingWitnessError`` when
    it was not supplied. The channels are attached once, for the given box
    and equilibrium, before any check runs, and every check reads them.
    """
    _, a_bar = row_stats(system.graph)
    box_tol = 10.0 * traj.dt * max(a_bar, 1.0)
    channels = attach_channels(traj, box, equilibrium, eq_spec).channels
    results: dict[str, CheckResult] = {}

    def need_box():
        if box is None:
            raise MissingWitnessError("check requires a BoxRaySpec")
        return box

    for check in checks:
        if check == "box_invariance":
            b = need_box()
            xM, xm = channels["xM"], channels["xm"]
            inside = (xm >= b.box_lo - 1e-12) & (xM <= b.box_hi + 1e-12)
            if not inside.any():
                results[check] = CheckResult(True, None, "never entered the box")
                continue
            first = np.argmax(inside)
            worst = float(
                np.maximum(b.box_lo - xm[first:], xM[first:] - b.box_hi).max()
            )
            results[check] = CheckResult(
                worst <= box_tol, worst, f"max excursion after entry (tol {box_tol:g})"
            )
        elif check == "y_monotone":
            need_box()
            results[check] = _monotone_check(channels["Y"])
        elif check == "v_monotone":
            if "V" not in channels:
                raise MissingWitnessError(
                    "v_monotone requires an equilibrium and an EquilibriumRaySpec"
                )
            results[check] = _monotone_check(channels["V"])
        elif check == "lemma6":
            b = need_box()
            results[check] = _lemma6_check(traj, b, box_tol)
        elif check == "consensus":
            spread = float(channels["xM"][-1] - channels["xm"][-1])
            results[check] = CheckResult(
                spread < CONSENSUS_THRESHOLD,
                spread,
                f"final spread (limit {float(traj.states[-1].mean()):.6g})",
            )
        elif check == "distance_decay":
            need_box()
            final = float(channels["dist"][-1])
            results[check] = CheckResult(
                final <= DECAY_THRESHOLD, final, "final distance to box"
            )
        else:
            raise ValueError(f"unknown check {check!r}")
    return results


def _lemma6_check(traj: Trajectory, b: BoxRaySpec, tol: float) -> CheckResult:
    """Case-resolved trajectory bound keyed on the term attaining Y(t0);
    reads the ``xM`` and ``xm`` channels."""
    _, term = lyapunov_Y(traj.states[0], b)
    xM, xm = traj.channels["xM"], traj.channels["xm"]
    if term == "box":
        worst = float(np.maximum(b.box_lo - xm, xM - b.box_hi).max())
        bound = "stay inside the box"
    elif term == "right_ray":
        floor = b.l2(float(xM[0]))
        worst = float((floor - xm).max())
        bound = f"x_min >= L2(x_max(0)) = {floor:.6g}"
    elif term == "left_ray":
        cap = b.l1(float(xm[0]))
        worst = float((xM - cap).max())
        bound = f"x_max <= L1(x_min(0)) = {cap:.6g}"
    elif term == "xM_minus_lo":
        floor = min(float(xm[0]), b.box_lo)
        worst = float((floor - xm).max())
        bound = f"x_min >= min(x_min(0), box_lo) = {floor:.6g}"
    else:  # hi_minus_xm
        cap = max(float(xM[0]), b.box_hi)
        worst = float((xM - cap).max())
        bound = f"x_max <= max(x_max(0), box_hi) = {cap:.6g}"
    return CheckResult(worst <= tol, worst, f"case {term}: {bound} (tol {tol:g})")

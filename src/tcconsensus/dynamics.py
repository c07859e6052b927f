"""Network dynamics under per-edge transmission constraints.

The state of agent ``i`` evolves as the weighted sum over in-edges of
``a_ij * (f_ji(x_j) - x_i)``, where ``f_ji`` is the constraint attached to
the transmission from ``j`` to ``i``. Gated edges drop their whole
contribution while the sender state is outside the accepted interval.

A :class:`System` is one edge table, ``(sender, receiver, weight,
function)`` plus the distinct function objects, built from a constraint map
or from a loader's checked columns; a loaded system's constraint map is a
view of the table. The system compiles the table into a table of rows keyed
by distinct function value, and its piecewise-linear functions into one bin
table over the union of their knots. A mixture without a piecewise-linear
form is not a function of the table: each of its members gets table rows of
its own, weighted ``a * w`` and ``a * (1 - w)``. One kernel,
:func:`_input_sums`, evaluates every piecewise-linear column with one lookup
in the bin table, the other functions once each over their sender columns,
and scatters the values to the receivers. The table's shape fixes the
scatter when it is compiled: a narrow table takes one dense product with its
weight block, a wide one a gather-sum over receiver slots, which costs
``O(E)`` per state instead of ``O(rows * n)`` (see :func:`_gather_sum`). A
wide table also bins each agent's state once and gathers the bins to its
rows, which saves ``rows - n`` searches for one integer gather. A large
batch counts the knots at or below each state instead of searching them,
which gives the same bins; the batch's size picks the lookup at each call.
When the table's rows are the agents in order, the kernel reads the states
themselves instead of gathering sender columns. It returns the constrained
input sum ``num_i = sum_j a_ij f_ji(x_j)`` and the active in-degree
``den_i = sum_j a_ij`` over the edges not gated shut, summed from the
edges, not from the member rows. An ungated system's ``den`` is its
in-degree vector of shape ``(n,)``, which broadcasts over the batch.
The right-hand side is ``num - x * den``; the equilibrium module's Picard
map is ``num / den``.

Integration is deterministic fixed-step forward integration (RK4 by
default): identical inputs produce bit-identical trajectories. For
discontinuous constraints this selects one of the possibly many solutions;
there is no event detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np
from numpy.typing import NDArray

from .constraints import ConstraintFn, Mix
from .errors import DimensionMismatchError, MissingWitnessError, NonFiniteStateError
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
    """A digraph plus one constraint per edge, keyed ``(sender, receiver)``.
    Systems compare and hash by identity, as their graphs do.

    The system compiles one edge table: edge ``e`` runs from ``sender[e]``
    to ``receiver[e]`` with weight ``weight[e]`` and carries the distinct
    function object ``function[e]``. Construction checks the map's keys
    against the graph's edge columns (:func:`_edge_columns`) and derives
    the table, grouping the edges by object identity in numpy (over the
    objects' ``id``); the loaders pass their graph and checked columns to
    :meth:`_from_table` instead. No step builds or reads the graph's
    ``n x n`` matrix. The table is kept as ``_edges``, sorted by ``(sender,
    receiver)`` with the objects in the order of their first edges, which
    is the report's echo (``app.system_to_dict``). The objects are then
    merged by value: variants are frozen dataclasses, so equal-valued
    copies share one entry, and a map that reuses a few objects on many
    edges costs one value hash per object, not per edge. The kernel's
    table is built with array operations.

    - ``distinct`` pairs each distinct function with its first edge in
      sorted order. The ledger loops iterate it instead of every edge, and
      still name the edge the per-edge loop would have stopped at. A
      ``Mix`` is listed as itself, as the report's echo writes it.
    - The table has one row per distinct (member, sender) pair and one
      entry ``(row, receiver, weight)`` per edge and member. An edge's
      members are its function, except for a ``Mix`` without a
      piecewise-linear form, whose members are those of its two functions
      with factors ``w`` and ``1 - w`` (see :func:`_members`): row ``k``
      holds the weight ``a_ij * factor`` for every receiver ``i`` whose edge
      from the row's sender ``j`` has the row's function as a member. A
      member equal to another edge's function shares its rows. Members
      follow in the first-edge order of their functions, gated functions
      last; each member's rows (its span) are contiguous, its senders
      ascending. ``_senders`` lists the row senders; when they are
      ``0..n-1`` in order, ``_identity`` tells the kernel to skip the
      gather.
    - One of two scatters holds the entries, chosen by the table's shape.
      Let ``R`` be its rows and ``K`` the most entries into one agent. A
      table with ``R <= 32 * K`` keeps the dense weight block ``_block``
      (``R`` by ``n``, ``block[row, receiver] = weight``). A wider table
      keeps no block but receiver slots ``_by_receiver`` (see
      :func:`_receiver_slots`), once for all its rows and once for its gate
      rows. A dense product costs ``R * n`` multiply-adds per state and a
      gather-sum ``K * n`` gathers and multiply-adds, several times dearer
      each; the factor 32 sits where the two break even. ``R`` never
      exceeds ``n * K``, so every system of 32 agents or fewer, the
      built-in scenarios among them, keeps its block.
    - The ungated in-degree ``_plain_alpha`` sums ``a_ij`` over the edges,
      not the member rows (``a*w + a*(1 - w)`` need not round to ``a``), in
      the row order a table without member rows would have.
    - The bin table serves every member with a piecewise-linear form,
      including a ``Mix`` that has one. Let ``G`` be the sorted union of
      their knots. A state in bin ``g`` (``G[g-1] <= x < G[g]``, bin 0
      unbounded below) lies on one fixed piece of each such member, the
      piece its own ``searchsorted`` picks for ``G[g-1]``. The flat slope
      and intercept arrays hold that piece at ``r * (len(G) + 1) + g`` for
      the member of rank ``r``, and each table row carries the base offset
      of its member, so one bin lookup over ``G`` selects the piece of
      every column: a ``searchsorted``, or in a large batch a count of the
      knots at or below each state (see :func:`_input_sums`). Members
      without a piecewise-linear form hold zeros there. A row's bin depends
      only on its sender, so a wide table bins the ``n`` agents and gathers
      their bins to its ``R`` rows, ``R - n`` lookups fewer for one integer
      gather. A narrow table bins its rows: there the gather costs more
      than the lookups it saves.
    """

    graph: Digraph
    distinct: tuple[tuple[tuple[int, int], ConstraintFn], ...] = field(
        init=False, repr=False
    )

    def __init__(self, graph: Digraph, constraints):
        # not a field: a system built from a table derives its map instead
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "constraints", constraints)
        self.__post_init__()

    def __post_init__(self):
        keys, fns = list(self.constraints), list(self.constraints.values())
        columns = _edge_columns(self.graph, keys)
        ids = np.fromiter(map(id, fns), dtype=np.uint64, count=len(fns))
        _, obj_first, index = np.unique(ids, return_index=True, return_inverse=True)
        self._compile(*columns, index, [fns[e] for e in obj_first.tolist()])

    @classmethod
    def _from_table(cls, graph, senders, receivers, weights, index, objects) -> System:
        """The system on ``graph`` whose edge ``e`` runs from ``senders[e]``
        to ``receivers[e]`` with weight ``weights[e]`` and carries
        ``objects[index[e]]``: a loader's graph and checked columns, the
        graph's edges in the loader's order, trusted as :meth:`_compile`
        trusts them. Its constraint map is derived from the table when
        first read."""
        self = cls.__new__(cls)
        object.__setattr__(self, "graph", graph)
        self._compile(senders, receivers, weights, index, objects)
        return self

    @cached_property
    def constraints(self) -> dict[tuple[int, int], ConstraintFn]:
        """The constraint of each edge, keyed ``(sender, receiver)``: the
        map the system was built from or, for a system built from a table,
        a view of the table in its input order, derived when first read."""
        senders, receivers, _, function, fns = self._edges
        at = np.argsort(self._input_order)
        keys = zip(senders[at].tolist(), receivers[at].tolist())
        return dict(zip(keys, map(fns.__getitem__, function[at].tolist())))

    def _compile(self, senders, receivers, weights, index, objects) -> None:
        """Compile the edge table: edge ``e`` from ``senders[e]`` to
        ``receivers[e]`` with weight ``weights[e]`` carries
        ``objects[index[e]]``. The pairs are the graph's edges, each once,
        the objects distinct by identity, and each object is on some edge."""
        n = self.n
        # the table in sorted (sender, receiver) order, and the objects in
        # the order of their first edges; the pairs are distinct, so one
        # argsort of their keys sorts them
        order = np.argsort(senders * n + receivers)
        senders, receivers, edge_weights, index = (
            np.asarray(a)[order] for a in (senders, receivers, weights, index)
        )
        first = np.full(len(objects), len(index))
        np.minimum.at(first, index, np.arange(len(index)))
        used = np.argsort(first)
        first = first[used]
        fn_rank = np.empty_like(used)
        fn_rank[used] = np.arange(len(used))
        function = fn_rank[index]
        fns = [objects[k] for k in used.tolist()]
        object.__setattr__(
            self, "_edges", (senders, receivers, edge_weights, function, tuple(fns))
        )
        object.__setattr__(self, "_input_order", order)

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
            order = np.argsort(entry_receivers * len(row_keys) + row_of_entry)
            rows, to, weight = (
                a[order] for a in (row_of_entry, entry_receivers, entry_weights)
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
        row_senders = row_keys % n
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_base", row_keys // n * len(lefts))
        object.__setattr__(self, "_slopes", slopes.ravel())
        object.__setattr__(self, "_icpts", icpts.ravel())
        object.__setattr__(
            self, "_direct", tuple(s for s, rep in zip(spans, reps) if rep is None)
        )
        object.__setattr__(self, "_gates", spans[plain:])
        object.__setattr__(self, "_spans", spans)
        object.__setattr__(self, "_senders", row_senders)
        object.__setattr__(
            self,
            "_identity",
            len(row_senders) == n and bool((row_senders == np.arange(n)).all()),
        )
        object.__setattr__(self, "_block", block)
        object.__setattr__(self, "_by_receiver", by_receiver)
        object.__setattr__(self, "_gate_start", gate_start)
        object.__setattr__(self, "_plain_alpha", plain_alpha)

    @property
    def n(self) -> int:
        return self.graph.n


def _edge_columns(graph: Digraph, pairs, columns=None):
    """The sender, receiver and weight columns of ``pairs``, an iterable of
    ``(sender, receiver)`` pairs that must be the edges of ``graph``, each
    once; ``columns`` are the pairs' senders and receivers as two lists, if
    the caller has them. Else ``ValueError`` names the first repeated pair
    or, compared as sets, the missing and extra pairs; pairs of other equal
    types, such as numpy integers, cover the edges too. The weights are the
    graph's own (:meth:`Digraph.weights_of`), read from no matrix."""
    if columns is None and set(map(len, pairs)) == {2}:
        columns = [list(map(itemgetter(k), pairs)) for k in (0, 1)]
    ends = np.array(columns if columns is not None else ())
    if ends.dtype.kind in "iu":
        senders, receivers = ends.astype(np.intp)
        weights = graph.weights_of(senders, receivers)
        if weights is not None:
            return senders, receivers, weights
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
    senders, receivers = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return senders, receivers, graph.weights_of(senders, receivers)


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
_COUNT_KNOTS = 16


def _count_knots(knots, X) -> NDArray[np.intp]:
    """The number of ``knots`` at or below each state of ``X``, which is
    ``knots.searchsorted(X, side="right")`` for every state but NaN (0
    here, ``len(knots)`` there): one broadcast comparison and one integer
    sum over the knot axis, in blocks of at most ``2**16`` comparisons,
    which bounds the boolean temporary."""
    below = knots[:, None, None]
    step = max(1, 2**16 // (knots.size * X.shape[1]))
    key = np.empty(X.shape, dtype=np.intp)
    for i in range(0, len(X), step):
        block = below <= X[i : i + step]
        np.add.reduce(block, axis=0, dtype=np.intp, out=key[i : i + step])
    return key


def _input_sums(
    system: System, X: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Constrained input sums and active in-degrees for a batch of states.

    ``X`` has shape ``(m, n)``, and so has ``num``. ``den`` has shape
    ``(m, n)`` when the system has a gate and is the in-degree vector of
    shape ``(n,)`` otherwise; either broadcasts against ``X``. A gated edge
    adds neither its value nor its weight while its sender is outside the
    gate.

    The columns are the table's rows, one per (member, sender) pair, so a
    ``Mix`` without a piecewise-linear form is evaluated member by member.
    They are the columns of ``X`` itself when the rows' senders are the
    agents in order. Every piecewise-linear column is evaluated by one
    lookup in the bin table: the same slope and intercept, and the same two
    operations, as :meth:`PWLRep.eval_array`, so the values are
    bit-identical. A wide table bins each agent once and gathers the bins
    to its rows, ``R - n`` lookups fewer for one integer gather; the keys
    are the same integers as a search per row. Columns of functions without
    a piecewise-linear form are then overwritten. The table's scatter sums
    the columns into the receivers, and the gate columns, open or shut, into
    ``den``: the dense product with a narrow table's block,
    :func:`_gather_sum` over a wide table's receiver slots. A wide table
    gathers the sender columns with ``take``, the faster gather at small
    batches.

    The batch picks the bin lookup. Fewer than ``_COUNT_FROM = 3072``
    binned states (``m`` times the agents a wide table bins, else ``m``
    times the rows), or a union of more than ``_COUNT_KNOTS = 16`` knots,
    search the union. A larger batch counts the knots at or below each
    state (:func:`_count_knots`). Either way the bin table is read by fancy
    indexing: ``take`` is 1.5-1.8 times slower on the 5 to 100 keys of a
    small batch (149 against 277 ns, 376 against 539 ns) and 4-13 % faster
    from 1000 keys, which moved no counted batch's ``rhs_batch`` by more
    than the noise (0.99-1.02 against ``take``). The count is the search's
    bin for every state but NaN, and a NaN state is NaN on any piece, so
    every output keeps its bytes. A search's cost per state depends on
    where the states fall, a count's is one vectorised comparison per knot.
    On 5-agent rings (2-vCPU x86, numpy 2.4) counting broke even at
    1500-2000 states for 1 or 2 knots and at 2500-3000 for 3 to 16 knots,
    below which numpy's broadcast comparison is several times slower per
    element; above 3000 states it took 0.6-0.9 of the search's
    ``rhs_batch`` time up to 16 knots, and lost at every size from 24
    knots.
    """
    slots = system._by_receiver
    if system._identity:
        XS = X
    elif slots is None:
        XS = X[:, system._senders]
    else:
        XS = X.take(system._senders, axis=1)
    knots = system._knots
    if knots.size:
        # a wide table bins each agent once, then gathers the bins
        binned = XS if slots is None or system._identity else X
        if binned.size >= _COUNT_FROM and knots.size <= _COUNT_KNOTS:
            key = _count_knots(knots, binned)
        else:
            key = knots.searchsorted(binned, side="right")
        if binned is not XS:
            key = key.take(system._senders, axis=1)
        key += system._base
        V = system._slopes[key] * XS + system._icpts[key]
    else:  # no function has a piecewise-linear form: every column is direct
        V = np.empty_like(XS)
    for fn, a, b in system._direct:
        V[:, a:b] = fn.eval_array(XS[:, a:b])
    if not system._gates:
        num = V @ system._block if slots is None else _gather_sum(V, *slots[0])
        return num, system._plain_alpha
    g = system._gate_start
    open_ = np.empty((X.shape[0], XS.shape[1] - g))
    for fn, a, b in system._gates:
        open_[:, a - g : b - g] = fn.gate_mask(XS[:, a:b])
        V[:, a:b] *= open_[:, a - g : b - g]
    if slots is None:
        return V @ system._block, system._plain_alpha + open_ @ system._block[g:]
    num = _gather_sum(V, *slots[0])
    return num, system._plain_alpha + _gather_sum(open_, *slots[1])


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


def rhs_batch(system: System, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Right-hand side for a batch of states, shape ``(m, n)``."""
    num, den = _input_sums(system, X)
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

    @property
    def runs(self) -> int:
        return self.states.shape[1]


_DIVERGENCE_LIMIT = 1e12


def integrate_batch(
    system: System, X0, spec: IntegrationSpec
) -> BatchTrajectory:
    """Fixed-step integration of many initial states in lockstep."""
    X = np.array(X0, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != system.n:
        raise ValueError(f"X0 must have shape (m, {system.n})")
    if not np.all(np.isfinite(X)):
        raise NonFiniteStateError("non-finite initial state")
    steps = spec.steps()
    stride = spec.stride()
    dt = spec.dt

    rec_times = np.empty(steps // stride + 1 + (steps % stride != 0))
    rec_states = np.empty(rec_times.shape + X.shape)
    rec_times[0] = 0.0
    rec_states[0] = X
    count = 1
    for k in range(1, steps + 1):
        if spec.method == "euler":
            X = X + dt * rhs_batch(system, X)
        else:
            k1 = rhs_batch(system, X)
            k2 = rhs_batch(system, X + 0.5 * dt * k1)
            k3 = rhs_batch(system, X + 0.5 * dt * k2)
            k4 = rhs_batch(system, X + dt * k3)
            X = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % stride == 0 or k == steps:
            # NaN and inf fail the comparison too; an empty batch passes
            if not (np.abs(X).max(initial=0.0) <= _DIVERGENCE_LIMIT):
                raise NonFiniteStateError(
                    f"divergence detected at t={k * dt:.6g}",
                    partial=BatchTrajectory(
                        rec_times[:count], rec_states[:count], dt
                    ),
                    time=k * dt,
                )
            rec_times[count] = k * dt
            rec_states[count] = X
            count += 1
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


@dataclass
class MonitorReport:
    results: dict[str, CheckResult]


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
) -> MonitorReport:
    """Run the selected per-trajectory checks and report pass/fail data.

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
    return MonitorReport(results)


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

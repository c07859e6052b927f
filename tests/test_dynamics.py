import copy
import functools
import importlib.util
import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcconsensus import (
    Affine,
    BoxRaySpec,
    EquilibriumRaySpec,
    GatedIdentity,
    Identity,
    IntegrationSpec,
    Mix,
    PiecewiseLinear,
    Saturation,
    ScaledSine,
    System,
    Tabulated,
    attach_channels,
    build_digraph,
    from_dict,
    integrate,
    integrate_batch,
    monitor_trajectory,
    rhs,
    scenario_by_name,
)
from tcconsensus.scenarios import F_A, builtin_scenarios
from tcconsensus.app import system_from_dict, system_to_dict
from tcconsensus import dynamics
from tcconsensus.dynamics import (
    _CHECK_EVERY,
    _DIVERGENCE_LIMIT,
    MONOTONE_TOL_ABS,
    MONOTONE_TOL_REL,
    BatchTrajectory,
    Trajectory,
    _monotone,
    default_dt,
    rhs_batch,
)
from tcconsensus.rays import distance_to_box, lyapunov_V, lyapunov_Y
from tcconsensus.equilibrium import _map_step, seed_stream, uniqueness_probe
from tcconsensus.errors import MissingWitnessError, NonFiniteStateError, ValidationError

from test_constraints import CATALOG
from test_rays import oracle_dist, oracle_V, oracle_Y

SINE = ScaledSine(0.8, math.pi)
PCHIP = Tabulated((-2.0, -1.0, 1.0, 2.0), (-1.5, -1.0, 1.0, 1.5), "pchip")


def input_sums(system, X):
    """The kernel's input sums and in-degrees for the batch ``X``, from a
    kernel prepared for its size, as an ad-hoc ``rhs_batch`` prepares
    one."""
    return dynamics._prepare(system, len(X))(X)


def picard_map(system, e):
    """The equilibrium solver's update map at one state."""
    return _map_step(e[None, :], *input_sums(system, e[None, :]))[0]


def two_agent(f_01, f_10):
    """Symmetric 2-agent graph; constraints keyed (sender, receiver)."""
    g = build_digraph([[0.0, 1.0], [1.0, 0.0]])
    return System(g, {(1, 0): f_10, (0, 1): f_01})


def identity_pair():
    return two_agent(Identity(), Identity())


class TestRhs:
    def test_linear_consensus_pair(self):
        assert rhs(identity_pair(), [0.0, 2.0]) == pytest.approx([2.0, -2.0])

    def test_origin_equilibrium(self):
        sys_ = two_agent(Affine(-0.5, 0.0), Affine(-0.5, 0.0))
        assert rhs(sys_, [0.0, 0.0]) == pytest.approx([0.0, 0.0])

    def test_consensus_zone_point_is_equilibrium(self):
        sys_ = scenario_by_name("ex1").system
        assert np.abs(rhs(sys_, np.zeros(sys_.n))).max() < 1e-12

    def test_non_finite_state_rejected(self):
        with pytest.raises(NonFiniteStateError):
            rhs(identity_pair(), [np.nan, 0.0])

    def test_all_identity_matches_laplacian(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(2, 7)
            w = rng.uniform(0, 2, size=(n, n)) * (rng.random((n, n)) < 0.6)
            np.fill_diagonal(w, 0.0)
            g = build_digraph(w)
            sys_ = System(g, {e: Identity() for e in g.edges()})
            x = rng.uniform(-5, 5, size=n)
            assert rhs(sys_, x) == pytest.approx(-g.laplacian() @ x)

    def test_constraint_map_must_cover_edges(self):
        g = build_digraph([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            System(g, {(1, 0): Identity()})

    @pytest.mark.parametrize(
        "keys, missing, extra",
        [
            # -2 would index agent 1 from the end, the sender of edge (1, 0)
            ([(0, 1), (-2, 0)], [(1, 0)], [(-2, 0)]),
            ([(0, 1), (3, 0)], [(1, 0)], [(3, 0)]),
            ([(0, 1), (2, 0)], [(1, 0)], [(2, 0)]),
            ([(0, 1), (1, 0), (0, 2)], [], [(0, 2)]),
            ([(0, 1), (1, 0, 0)], [(1, 0)], [(1, 0, 0)]),
            ([(0, 1), (10**30, 0)], [(1, 0)], [(10**30, 0)]),
            # flattened, these keys would read as the two edges
            ([(0, 1, 1), (0,)], [(0, 1), (1, 0)], [(0,), (0, 1, 1)]),
        ],
    )
    def test_cover_check_names_the_difference(self, keys, missing, extra):
        # agent 2 has no edges
        g = build_digraph([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError) as err:
            System(g, dict.fromkeys(keys, Identity()))
        assert str(err.value) == (
            "constraint map must cover the edge set exactly; "
            f"missing {missing}, extra {extra}"
        )

    def test_systems_compare_and_hash_by_identity(self):
        a, b = scenario_by_name("ex1").system, scenario_by_name("ex1").system
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_keys_of_other_integer_types_cover_edges(self):
        g = build_digraph([[0.0, 1.0], [1.0, 0.0]])
        sys_ = System(g, {(np.int64(0), 1): Identity(), (1, np.int32(0)): Affine(0.5)})
        assert rhs(sys_, [1.0, 2.0]) == pytest.approx([0.5 * 2.0 - 1.0, 1.0 - 2.0])


def per_edge_sums(system, x):
    """The model formula edge by edge: ``num_i = sum_j a_ij f_ji(x_j)`` and
    ``den_i = sum_j a_ij``, where a gated edge adds nothing while its sender
    is outside ``[lo, hi]``."""
    num = np.zeros(system.n)
    den = np.zeros(system.n)
    for (j, i), fn in system.constraints.items():
        if fn.is_gate and not fn.lo <= x[j] <= fn.hi:
            continue
        a = system.graph.weights[i, j]
        num[i] += a * fn.evaluate(float(x[j]))
        den[i] += a
    return num, den


def random_catalog_system(seed, catalog=CATALOG):
    """Seeded random digraph whose edges draw from the whole catalog, so
    most functions serve several edges and several senders."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    w = rng.uniform(0.2, 2.0, size=(n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(w, 0.0)
    g = build_digraph(w)
    # the functions are drawn in receiver-major edge order, the order the
    # graph once stored, so each seed keeps its system
    edges = sorted(g.edges(), key=lambda e: e[::-1])
    return System(g, {e: catalog[rng.integers(len(catalog))] for e in edges})


class TestEdgeTableMatchesPerEdgeLoop:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("copies", ["shared", "json"])
    def test_rhs_and_picard(self, seed, copies):
        sys_ = random_catalog_system(seed)
        if copies == "json":
            sys_ = system_from_dict(json.loads(json.dumps(system_to_dict(sys_))))
        rng = np.random.default_rng(100 + seed)
        X = rng.uniform(-3.0, 3.0, size=(6, sys_.n))
        got = rhs_batch(sys_, X)
        for x, row in zip(X, got):
            num, den = per_edge_sums(sys_, x)
            ref = num - x * den
            assert np.abs(row - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())
            ref = np.where(den > 0, num / np.where(den > 0, den, 1.0), x)
            picard = picard_map(sys_, x)
            assert np.abs(picard - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())

    def test_closed_gates_drop_out(self):
        gate = GatedIdentity(-1.0, 1.0)
        sys_ = two_agent(gate, Affine(0.5, 0.0))
        # agent 0 is outside the gate on its edge to agent 1
        x = np.array([3.0, 0.5])
        assert rhs(sys_, x) == pytest.approx([0.25 - 3.0, 0.0])
        assert picard_map(sys_, x) == pytest.approx([0.25, 0.5])

    def test_equal_copies_share_one_entry(self):
        sys_ = random_catalog_system(7)
        rt = system_from_dict(json.loads(json.dumps(system_to_dict(sys_))))
        assert rt.distinct == sys_.distinct
        assert len(rt.distinct) == len({id(fn) for fn in sys_.constraints.values()})


def slots_of(block):
    """Receiver slots of a weight block, the oracle for the compiled ones:
    column ``i`` lists the rows with a nonzero weight into agent ``i`` in
    order, padded with row 0 and weight 0."""
    cols = [np.flatnonzero(block[:, i]) for i in range(block.shape[1])]
    rows = np.zeros((max(map(len, cols), default=0), block.shape[1]), dtype=np.intp)
    weights = np.zeros(rows.shape)
    for i, col in enumerate(cols):
        rows[: len(col), i] = col
        weights[: len(col), i] = block[col, i]
    return rows, weights


def dense_block(system):
    """The table's weight block: the compiled one, or the dense
    materialisation of a wide table's receiver slots."""
    if system._by_receiver is None:
        return system._block
    (rows, weights), _ = system._by_receiver
    block = np.zeros((len(system._senders), system.n))
    k, i = np.nonzero(weights)
    block[rows[k, i], i] = weights[k, i]
    return block


def per_span_sums(system, X):
    """The former kernel, kept as the oracle: every distinct function
    evaluated over its own sender columns, gates applied per span, and a
    dense product with the weight block (materialised for a wide table)."""
    block = dense_block(system)
    XS = X[:, system._senders]
    V = np.empty_like(XS)
    g = system._gate_start
    open_ = np.empty((X.shape[0], XS.shape[1] - g))
    for fn, a, b in spans_of(system):
        V[:, a:b] = fn.eval_array(XS[:, a:b])
        if fn.is_gate:
            open_[:, a - g : b - g] = fn.gate_mask(XS[:, a:b])
            V[:, a:b] *= open_[:, a - g : b - g]
    num = V @ block
    den = system._plain_alpha + open_ @ block[g:]
    return num, den


def assert_sums_match(got, want, X):
    """``num`` has the shape of ``X``; ``den`` broadcasts to it (an ungated
    system returns its ``(1, n)`` in-degree row itself); both equal ``want``
    byte for byte."""
    (num, den), (want_num, want_den) = got, want
    assert num.shape == X.shape
    assert np.broadcast_shapes(den.shape, X.shape) == X.shape
    assert num.tobytes() == want_num.tobytes()
    assert np.broadcast_to(den, X.shape).tobytes() == want_den.tobytes()


def knot_probe_rows(system, rng, extra=40):
    """Rows that put every knot of every member, its two float neighbours,
    +-0.0 and +-1e300 on every sender column, followed by random rows. The
    members' own knots, not the compiled ones: a knot the compile dropped
    must still be a point where every member keeps its piece."""
    reps = [fn.pwl() for fn, _, _ in spans_of(system)]
    G = np.array(sorted({x for rep in reps if rep is not None for x in rep.xs}))
    special = np.concatenate(
        (G, np.nextafter(G, -np.inf), np.nextafter(G, np.inf), [0.0, -0.0, 1e300, -1e300])
    )
    rows = np.repeat(special[:, None], system.n, axis=1)
    return np.vstack((rows, rng.uniform(-4.0, 4.0, size=(extra, system.n))))


def irregular_pwls(rng, count=4):
    """Piecewise-linear functions on random knots: unlike the catalog's, the
    pieces that meet at a knot round differently there."""
    out = []
    for _ in range(count):
        xs = np.cumsum(rng.uniform(0.05, 1.5, size=int(rng.integers(1, 5)))) - 2.0
        knots = tuple(zip(xs.tolist(), rng.uniform(-2.0, 2.0, size=len(xs)).tolist()))
        out.append(PiecewiseLinear(knots, *rng.uniform(-1.0, 1.0, size=2).tolist()))
    return out


def bin_table_system(seed):
    """A random catalog system whose edges also draw from irregular PWLs."""
    return random_catalog_system(
        seed, CATALOG + irregular_pwls(np.random.default_rng(200 + seed))
    )


class TestBinTableMatchesPerSpanKernel:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("m", [1, 7, 1000])
    def test_bit_identical(self, seed, m):
        sys_ = bin_table_system(seed)
        rng = np.random.default_rng(300 + seed)
        rows = knot_probe_rows(sys_, rng)
        pad = -len(rows) % m
        rows = np.vstack((rows, rng.uniform(-4.0, 4.0, size=(pad, sys_.n))))
        for X in np.split(rows, len(rows) // m):
            assert_sums_match(input_sums(sys_, X), per_span_sums(sys_, X), X)

    @pytest.mark.parametrize("seed", range(3))
    def test_no_piecewise_linear_function(self, seed):
        # the catalog's sine-affine mix would put its affine member in the
        # bin table; a sine-pchip mix has no piecewise-linear member
        direct = [f for f in CATALOG if f.pwl() is None and not isinstance(f, Mix)]
        sys_ = random_catalog_system(seed, direct + [Mix(SINE, PCHIP, 0.3)])
        assert sys_._knots.size == 0
        X = np.random.default_rng(seed).uniform(-4.0, 4.0, size=(7, sys_.n))
        assert_sums_match(input_sums(sys_, X), per_span_sums(sys_, X), X)

    def test_seeds_cover_gated_and_ungated_systems(self):
        gated = {bin_table_system(s)._gate_bounds is not None for s in range(12)}
        assert gated == {True, False}


def member_terms(fn, factor=1.0):
    """``(member, factor)`` pairs of an edge carrying ``fn``, in member
    order: a mix without a piecewise-linear form recurses into its two
    members with factors ``factor * w`` and ``factor * (1 - w)``."""
    if isinstance(fn, Mix) and fn.pwl() is None:
        return member_terms(fn.first, factor * fn.weight) + member_terms(
            fn.second, factor * (1.0 - fn.weight)
        )
    return [(fn, factor)]


def edge_members(fn):
    """The block rows of an edge carrying ``fn``, as ``{member: factor}``:
    equal members merge, summing their factors, and factor 0 drops out."""
    out = {}
    for member, factor in member_terms(fn):
        out[member] = out.get(member, 0.0) + factor
    return {member: factor for member, factor in out.items() if factor}


def per_edge_table(system):
    """The per-edge table build, kept as the oracle: returns ``distinct``,
    the spans (each member with its rows ``[a, b)``, in row order),
    ``_senders``, ``_block``, ``_gate_start`` and ``_plain_alpha`` as the
    compiled table must hold them.

    Rows are keyed by member function: a mix without a piecewise-linear form
    fills one row per member (see :func:`edge_members`) with weight
    ``a * factor``, in the span of the equal-valued function if there is
    one. The in-degree sums the rows of the unexpanded table, one row per
    distinct (function, sender) pair, in order."""
    first = {}
    for (j, i), fn in sorted(system.constraints.items()):
        first.setdefault(fn, (j, i))
    distinct = tuple((edge, fn) for fn, edge in first.items())
    ordered = sorted(first, key=lambda fn: fn.is_gate)
    members = {}
    for fn in ordered:
        for member in edge_members(fn):
            members.setdefault(member, {})
    unexpanded = {fn: {} for fn in ordered}
    for (j, i), fn in sorted(system.constraints.items()):
        a = system.graph.weights[i, j]
        unexpanded[fn].setdefault(j, {})[i] = a
        for member, factor in edge_members(fn).items():
            members[member].setdefault(j, {})[i] = a * factor

    def table(cells):
        spans, rows = [], []
        for fn, by_sender in cells.items():
            start = len(rows)
            rows.extend(sorted(by_sender.items()))
            spans.append((fn, start, len(rows)))
        block = np.zeros((len(rows), system.n))
        for k, (_, recv) in enumerate(rows):
            block[k, list(recv)] = list(recv.values())
        gate_start = next((a for fn, a, _ in spans if fn.is_gate), len(rows))
        senders = np.array([j for j, _ in rows], dtype=np.intp)
        return tuple(spans), senders, block, gate_start

    spans, senders, block, gate_start = table(members)
    _, _, flat, flat_gate_start = table(unexpanded)
    return distinct, spans, senders, block, gate_start, flat[:flat_gate_start].sum(axis=0)


@functools.lru_cache(maxsize=16)
def spans_of(system):
    """The table's members with their rows ``[a, b)``, in row order, gated
    members last, as the per-edge build lays them out."""
    return per_edge_table(system)[1]


def gate_spans(system):
    """The gated members' spans, in row order."""
    return [span for span in spans_of(system) if span[0].is_gate]


def assert_spans_match(system, spans):
    """What the compile keeps of ``spans``: each row's bin-table offset
    (its member's rank times the bin count), the direct members with their
    rows as ``int`` bounds, and the gate rows' accepted intervals."""
    width = len(system._knots) + 1
    rank = np.repeat(np.arange(len(spans)), [b - a for _, a, b in spans])
    assert system._base.tolist() == [(rank * width).tolist()]
    assert system._direct == tuple(s for s in spans if s[0].pwl() is None)
    assert [type(v) for s in system._direct for v in s[1:]] == [int] * 2 * len(system._direct)
    gates = [(fn, a, b) for fn, a, b in spans if fn.is_gate]
    if not gates:
        assert system._gate_bounds is None
        return
    for got, end in zip(system._gate_bounds, ("lo", "hi")):
        want = np.array([[getattr(fn, end) for fn, a, b in gates for _ in range(a, b)]])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_table_matches_oracle(system):
    """The compiled table against :func:`per_edge_table`. A table with more
    than 32 rows per receiver slot scatters by receiver slots and keeps no
    block: its slots, and those of its gate rows, must be the oracle
    block's, and its dense materialisation the oracle block. The in-degree
    is kept as a ``(1, n)`` row, the shape of a one-state batch."""
    distinct, spans, senders, block, gate_start, plain_alpha = per_edge_table(system)
    assert system.distinct == distinct
    assert_spans_match(system, spans)
    assert system._gate_start == gate_start and type(system._gate_start) is int
    pairs = [
        (system._senders, senders),
        (dense_block(system), block),
        (system._plain_alpha, plain_alpha[None, :]),
    ]
    wide = len(senders) > 32 * len(slots_of(block)[0])
    assert (system._block is None) is wide is (system._by_receiver is not None)
    if wide:
        for got, part in zip(system._by_receiver, (block, block[gate_start:])):
            pairs += zip(got, slots_of(part))
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert system._identity is (senders.tolist() == list(range(system.n)))


class TestEdgeTableMatchesPerEdgeBuild:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("copies", ["shared", "json", "per-edge"])
    def test_random_catalog_systems(self, seed, copies):
        sys_ = random_catalog_system(seed)
        if copies == "json":
            sys_ = system_from_dict(json.loads(json.dumps(system_to_dict(sys_))))
        elif copies == "per-edge":
            # one equal-valued object per edge: merged by value, not identity
            sys_ = System(
                sys_.graph,
                {e: from_dict(fn.to_dict()) for e, fn in sys_.constraints.items()},
            )
        assert_table_matches_oracle(sys_)

    @pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
    def test_scenarios(self, name):
        assert_table_matches_oracle(scenario_by_name(name).system)

    @pytest.mark.parametrize("n", [1, 3, 100])
    def test_edgeless_system(self, n):
        sys_ = System(build_digraph(np.zeros((n, n))), {})
        assert_table_matches_oracle(sys_)
        assert rhs_batch(sys_, np.ones((2, n))).tolist() == np.zeros((2, n)).tolist()

    def test_a_system_without_agents_is_refused(self):
        graph = build_digraph(np.zeros((0, 0)))
        with pytest.raises(ValidationError, match="^a system needs at least one agent$"):
            System(graph, {})
        empty = np.zeros(0, dtype=np.intp)
        with pytest.raises(ValidationError, match="^a system needs at least one agent$"):
            System._from_table(graph, empty, [], empty)


MIX_CASES = {
    "nested": [
        Mix(Mix(ScaledSine(0.5), Affine(0.5), 0.25), PCHIP, 0.6),
        Mix(Mix(Affine(0.5), Saturation(-1.0, 1.0)), SINE, 0.7),
        Affine(0.5),
    ],
    "weights 0, 1 and 0.3": [Mix(SINE, Affine(-0.5), w) for w in (0.0, 1.0, 0.3)],
    "equal members": [Mix(SINE, SINE, 0.3), Mix(PCHIP, Mix(PCHIP, SINE, 0.5), 0.3)],
    "member of another edge": [Mix(SINE, Affine(-0.5), 0.3), SINE, Affine(-0.5)],
    "gated": [Mix(PCHIP, Identity(), 0.3), GatedIdentity(-1.0, 1.0), Identity()],
    "all piecewise-linear": [
        Mix(Affine(0.5), Saturation(-1.0, 1.0), 0.3),
        Mix(Mix(Affine(0.5), Identity(), 0.25), Saturation(-1.0, 1.0), 0.6),
        Saturation(-1.0, 1.0),
    ],
}


def mix_system(fns, seed=0):
    """Complete 5-agent digraph with seeded weights whose edges, in sorted
    order, take ``fns`` in turn, so each function serves several senders."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 2.0, size=(5, 5))
    np.fill_diagonal(w, 0.0)
    g = build_digraph(w)
    return System(g, {e: fns[k % len(fns)] for k, e in enumerate(sorted(g.edges()))})


class TestMixExpansion:
    @pytest.mark.parametrize("case", MIX_CASES)
    def test_table_matches_oracle(self, case):
        sys_ = mix_system(MIX_CASES[case])
        assert_table_matches_oracle(sys_)
        # the ledger and the echo still see each mix as one function
        assert [fn for _, fn in sys_.distinct] == MIX_CASES[case]
        assert system_from_dict(system_to_dict(sys_)).constraints == sys_.constraints

    def test_members(self):
        sine, affine = SINE, Affine(-0.5)
        assert edge_members(Mix(sine, affine, 0.0)) == {affine: 1.0}
        assert edge_members(Mix(sine, affine, 1.0)) == {sine: 1.0}
        assert edge_members(Mix(sine, sine, 0.3)) == {sine: 0.3 + (1.0 - 0.3)}
        nested = Mix(Mix(sine, PCHIP, 0.25), affine, 0.6)
        assert edge_members(nested) == {
            sine: 0.6 * 0.25, PCHIP: 0.6 * (1.0 - 0.25), affine: 1.0 - 0.6
        }
        for case in MIX_CASES.values():
            for fn in case:
                assert dynamics._members(fn) == edge_members(fn)

    def test_spans(self):
        # the sine member joins the span of the sine edges: one direct span
        sys_ = mix_system(MIX_CASES["member of another edge"])
        assert [fn for fn, _, _ in sys_._direct] == [SINE]
        # a mix with a piecewise-linear form stays one bin-table column
        pwl = mix_system(MIX_CASES["all piecewise-linear"])
        assert [fn for fn, _, _ in spans_of(pwl)] == MIX_CASES["all piecewise-linear"]
        assert_table_matches_oracle(pwl)
        assert not pwl._direct
        assert scenario_by_name("ex1").system._direct == ((F_A, 1, 4),)

    @pytest.mark.parametrize("case", MIX_CASES)
    @pytest.mark.parametrize("m", [1, 7])
    def test_sums(self, case, m):
        """``num`` is within ``(T_i + 4) * eps * S_i + 4 * T_i * eta`` of the
        per-edge scalar sum ``sum_j a_ij f_ji(x_j)``. ``T_i`` counts the
        member terms into agent ``i``, ``S_i`` sums their magnitudes
        ``|a_ij * factor * member(x_j)|`` and ``eta`` is the smallest
        subnormal. Each side sums at most ``T_i`` terms, an error of at most
        ``(T_i - 1) / 2 * eps * S_i``, and rounds each term, its factor and
        each mix level within about ``2 * eps`` of the term, or within
        ``eta / 2`` per rounding below the normal range. ``den`` is the
        unexpanded in-degree, byte for byte."""
        sys_ = mix_system(MIX_CASES[case])
        rng = np.random.default_rng(400)
        rows = knot_probe_rows(sys_, rng)
        rows = rows[(np.abs(rows) != 1e300).all(axis=1)]  # sin loses all digits
        assert len(rows) and not (np.abs(rows) == 1e300).any()
        rows = np.vstack((rows, rng.uniform(-4.0, 4.0, size=(-len(rows) % m, sys_.n))))
        eps, eta = np.finfo(float).eps, np.finfo(float).smallest_subnormal
        for X in np.split(rows, len(rows) // m):
            num, den = input_sums(sys_, X)
            assert_sums_match((num, den), per_span_sums(sys_, X), X)
            for x, got in zip(X, num):
                want, _ = per_edge_sums(sys_, x)
                terms, scale = np.zeros(sys_.n), np.zeros(sys_.n)
                for (j, i), fn in sys_.constraints.items():
                    if fn.is_gate and not fn.lo <= x[j] <= fn.hi:
                        continue
                    a = sys_.graph.weights[i, j]
                    for member, factor in edge_members(fn).items():
                        terms[i] += 1
                        scale[i] += abs(a * factor * member.evaluate(float(x[j])))
                bound = (terms + 4) * eps * scale + 4 * terms * eta
                assert (np.abs(got - want) <= bound).all()
        if sys_._gate_bounds is None:  # one in-degree row, tiled to the batch
            want = np.broadcast_to(per_edge_table(sys_)[5], X.shape)
            assert np.broadcast_to(den, X.shape).tobytes() == want.tobytes()


def per_edge_batch(system, X):
    """:func:`per_edge_sums` over a batch of states, edge by edge on whole
    columns, plus what a rounding bound needs: ``T``, the member terms into
    each agent (a mix without a piecewise-linear form counts its members, as
    the table splits it), and ``S``, the sum of their magnitudes
    ``|a_ij * factor * member(x_j)|``, over the edges not gated shut.
    Returns ``num``, ``den``, ``T`` and ``S``, each of the shape of ``X``."""
    num, den, T, S = (np.zeros(X.shape) for _ in range(4))
    for (j, i), fn in system.constraints.items():
        x = X[:, j]
        open_ = (fn.lo <= x) & (x <= fn.hi) if fn.is_gate else np.ones(len(x), bool)
        a = system.graph.weights[i, j]
        num[:, i] += np.where(open_, a * fn.eval_array(x), 0.0)
        den[:, i] += np.where(open_, a, 0.0)
        for member, factor in edge_members(fn).items():
            T[:, i] += open_
            S[:, i] += np.where(open_, np.abs(a * factor * member.eval_array(x)), 0.0)
    return num, den, T, S


def assert_within_rounding(system, X, num, den):
    """The kernel's ``num`` for the batch ``X`` is within the bound of
    :meth:`TestMixExpansion.test_sums`, ``(T + 4) * eps * S + 4 * T * eta``,
    of the per-edge sum ``sum_j a_ij f_ji(x_j)`` (see
    :func:`per_edge_batch`), and ``den`` within ``(T + 4) * eps * den`` of
    the per-edge ``sum_j a_ij``: each side sums at most ``T`` terms, in any
    order."""
    eps, eta = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    want_num, want_den, T, S = per_edge_batch(system, X)
    assert num.shape == X.shape
    assert (np.abs(num - want_num) <= (T + 4) * eps * S + 4 * T * eta).all()
    assert (np.abs(den - want_den) <= (T + 4) * eps * want_den).all()


def load_netgen():
    """The benchmark's network generator, ``perfbench/netgen.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "netgen.py"
    spec = importlib.util.spec_from_file_location("netgen", path)
    netgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(netgen)
    return netgen


WIDE_FNS = [
    Mix(SINE, PCHIP, 0.3),
    Mix(Mix(SINE, Affine(0.5), 0.25), PCHIP, 0.6),
    SINE,
    PCHIP,
    GatedIdentity(-1.0, 1.0),
    Saturation(-1.0, 1.0),
    *irregular_pwls(np.random.default_rng(500)),
]


def wide_system(n=150, extra=5, silent=(), seed=0):
    """Directed ring plus ``extra`` random in-edges per agent, except the
    agents in ``silent``, which have none; the edges, in sorted order, draw
    from ``WIDE_FNS``: non-piecewise-linear mixes, sine, pchip, a gate and
    piecewise-linear functions."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in sorted(set(range(n)) - set(silent)):
        ring = (i - 1) % n
        others = [j for j in range(n) if j not in (i, ring)]
        others = rng.choice(others, extra, replace=False)
        w[i, [ring, *others]] = rng.uniform(0.5, 1.5, size=extra + 1)
    g = build_digraph(w)
    fns = rng.integers(len(WIDE_FNS), size=len(g.edges()))
    return System(g, {e: WIDE_FNS[k] for e, k in zip(sorted(g.edges()), fns.tolist())})


SILENT = range(0, 150, 7)
WIDE_SYSTEMS = {
    "netgen-200": lambda: system_from_dict(load_netgen().wide_network(1, 200)),
    "mixed": wide_system,
    "silent agents": lambda: wide_system(silent=SILENT),
}


class TestReceiverSlots:
    def test_small_systems_keep_the_dense_block(self):
        # a table has at most n slots' worth of rows, so n <= 32 is dense
        systems = [sc.system for sc in builtin_scenarios()]
        systems += [random_catalog_system(seed) for seed in range(12)]
        systems += [bin_table_system(seed) for seed in range(12)]
        systems.append(system_from_dict(load_netgen().wide_network(1, 50)))
        for sys_ in systems:
            assert sys_._by_receiver is None and sys_._block is not None

    @pytest.mark.parametrize("name", WIDE_SYSTEMS)
    def test_table_matches_oracle(self, name):
        sys_ = WIDE_SYSTEMS[name]()
        assert sys_._block is None and sys_._gate_bounds is not None
        assert bool(sys_._direct) is (name != "netgen-200")
        assert_table_matches_oracle(sys_)

    @pytest.mark.parametrize("name", WIDE_SYSTEMS)
    @pytest.mark.parametrize("m", [1, 3, 8, 1000])
    def test_sums(self, name, m):
        sys_ = WIDE_SYSTEMS[name]()
        rng = np.random.default_rng(700 + m)
        rows = knot_probe_rows(sys_, rng)
        rows = np.vstack((rows, rng.uniform(-4.0, 4.0, size=(-len(rows) % m, sys_.n))))
        parts = [input_sums(sys_, X) for X in np.split(rows, len(rows) // m)]
        num = np.vstack([p[0] for p in parts])
        den = np.vstack([np.broadcast_to(p[1], p[0].shape) for p in parts])
        assert_within_rounding(sys_, rows, num, den)

    @pytest.mark.parametrize("gates", [False, True])
    @pytest.mark.parametrize("m", [1, 8, 1000])
    def test_slots_are_summed_in_row_order(self, m, gates):
        sys_ = wide_system()
        rows, weights = sys_._by_receiver[gates]
        width = len(sys_._senders) - sys_._gate_start * gates
        V = np.random.default_rng(m).uniform(-4.0, 4.0, size=(m, width))
        want = np.zeros((m, sys_.n))
        for k in range(len(rows)):
            want += V[:, rows[k]] * weights[k]
        assert dynamics._gather_sum(V, rows, weights).tobytes() == want.tobytes()

    def test_zero_in_degree_agents_get_zero_sums(self):
        sys_ = wide_system(silent=SILENT)
        X = np.random.default_rng(800).uniform(-4.0, 4.0, size=(5, sys_.n))
        num, den = input_sums(sys_, X)
        assert (num[:, SILENT] == 0.0).all() and (den[:, SILENT] == 0.0).all()
        assert (rhs_batch(sys_, X)[:, SILENT] == 0.0).all()


def piece_change_knots(system):
    """The knots at which some member's slope or intercept changes, compared
    bit for bit, member by member: the oracle of the compiled knots."""
    out = set()
    for fn, _, _ in spans_of(system):
        rep = fn.pwl()
        if rep is not None:
            pieces = [struct.pack("<dd", s, c) for _, _, s, c in rep.pieces()]
            out.update(x for x, a, b in zip(rep.xs, pieces, pieces[1:]) if a != b)
    return sorted(out)


SCENARIO_NAMES = [s.name for s in builtin_scenarios()]
LIVE_KNOTS = {
    **{name: [] for name in ("ex3", "necessity-2agent", "bipartite", "discarded", "sine")},
    **{f"netgen-{n}": [-1.5, -1.0, 1.0, 1.5] for n in (50, 200, 1000)},
}
# a gate at each end of the signed zeros and of the real line
ZERO_GATES = [
    GatedIdentity(-1.0, 1.0),
    GatedIdentity(-0.0, 0.0),
    GatedIdentity(0.0, math.inf),
    GatedIdentity(-math.inf, -0.0),
    Affine(0.5),
]


class TestLiveKnots:
    """The bin table keeps only the knots where some member changes piece;
    a table without one evaluates each row on its one piece, and the gate
    rows are opened by their compiled bounds."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES + ["catalog", "bin-table", "mix", "wide"])
    def test_compiled_knots_are_the_piece_changes(self, name):
        if name == "catalog":
            systems = [random_catalog_system(seed) for seed in range(12)]
        elif name == "bin-table":
            systems = [bin_table_system(seed) for seed in range(12)]
        elif name == "mix":
            systems = [mix_system(fns) for fns in MIX_CASES.values()]
        elif name == "wide":
            systems = [factory() for factory in WIDE_SYSTEMS.values()]
        else:
            systems = [scenario_by_name(name).system]
        for sys_ in systems:
            assert sys_._knots.tolist() == piece_change_knots(sys_)
            width = len(sys_._knots) + 1
            assert sys_._slopes.shape == sys_._icpts.shape == (len(spans_of(sys_)) * width,)

    @pytest.mark.parametrize("name", LIVE_KNOTS)
    def test_scenario_and_netgen_knots(self, name):
        kind, _, arg = name.partition("-")
        if kind == "netgen":
            sys_ = system_from_dict(load_netgen().wide_network(1, int(arg)))
        else:
            sys_ = scenario_by_name(name).system
        assert sys_._knots.tolist() == LIVE_KNOTS[name]

    def test_a_knot_of_another_member_stays(self):
        # Affine's knot at 0 is no piece change, Saturation(0, 1)'s is
        assert mix_system([Affine(0.5)])._knots.tolist() == []
        sys_ = mix_system([Affine(0.5), Saturation(0.0, 1.0)])
        assert sys_._knots.tolist() == [0.0, 1.0]

    def test_a_signed_zero_intercept_change_keeps_its_knot(self):
        # slope 1 on both sides of 0; the intercept is 0.0 left of it and
        # -0.0 right of it
        fn = PiecewiseLinear(((-1.0, -1.0), (0.0, -0.0)), 1.0, 1.0)
        (_, _, s0, c0), (_, _, s1, c1), (_, _, s2, c2) = fn.pwl().pieces()
        assert s0 == s1 == s2 == 1.0 and c0 == c1 == c2 == 0.0
        assert [math.copysign(1.0, c) for c in (c0, c1, c2)] == [1.0, 1.0, -1.0]
        sys_ = mix_system([fn])
        assert sys_._knots.tolist() == [0.0]
        X = knot_probe_rows(sys_, np.random.default_rng(0))
        assert_sums_match(input_sums(sys_, X), per_span_sums(sys_, X), X)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("m", [1, 7])
    def test_scenario_sums(self, name, m):
        sys_ = scenario_by_name(name).system
        rng = np.random.default_rng(m)
        rows = knot_probe_rows(sys_, rng)
        rows = np.vstack((rows, rng.uniform(-4.0, 4.0, size=(-len(rows) % m, sys_.n))))
        for X in np.split(rows, len(rows) // m):
            assert_sums_match(input_sums(sys_, X), per_span_sums(sys_, X), X)

    def test_one_piece_rows(self):
        rows = len(scenario_by_name("ex3").system._senders)
        for name in SCENARIO_NAMES:
            sys_ = scenario_by_name(name).system
            has_pwl = any(fn.pwl() is not None for fn, _, _ in spans_of(sys_))
            assert (sys_._one_piece is not None) is (has_pwl and not sys_._knots.size)
        slopes, icpts = scenario_by_name("ex3").system._one_piece
        assert slopes.shape == icpts.shape == (1, rows)
        direct = [f for f in CATALOG if f.pwl() is None and not isinstance(f, Mix)]
        assert random_catalog_system(0, direct)._one_piece is None

    def test_row_shaped_constants(self):
        for name in SCENARIO_NAMES:
            sys_ = scenario_by_name(name).system
            assert sys_._base.shape == (1, len(sys_._senders))
            assert sys_._plain_alpha.shape == (1, sys_.n)

    @pytest.mark.parametrize("seed", range(3))
    def test_gate_bounds_agree_with_gate_mask(self, seed):
        sys_ = mix_system(ZERO_GATES, seed)
        g = sys_._gate_start
        lo, hi = sys_._gate_bounds
        assert lo.shape == hi.shape == (1, len(sys_._senders) - g)
        ends = [fn.lo for fn in ZERO_GATES[:4]] + [fn.hi for fn in ZERO_GATES[:4]]
        pool = np.array(ends + [np.nan, 0.5, -0.5, 2.0, -2.0])
        pool = np.concatenate((pool, np.nextafter(pool, -np.inf), np.nextafter(pool, np.inf)))
        X = np.random.default_rng(seed).choice(pool, size=(200, sys_.n))
        XG = X[:, sys_._senders[g:]]
        gates = gate_spans(sys_)
        want = np.hstack([fn.gate_mask(XG[:, a - g : b - g]) for fn, a, b in gates])
        assert ((XG >= lo) & (XG <= hi)).tolist() == want.tolist()
        with np.errstate(all="ignore"):
            assert_sums_match(input_sums(sys_, X), per_span_sums(sys_, X), X)


def searched_bin_sums(system, X):
    """The kernel with every table row binned on its own by
    ``searchsorted`` and the bin table read by fancy indexing, whatever the
    batch size: the oracle for binning each agent of a wide table once, and
    for counting knots in large batches. The bins are the same integers for
    every state but NaN, which is NaN on every piece, so ``num`` and ``den``
    must agree byte for byte."""
    XS = X[:, system._senders]
    key = system._knots.searchsorted(XS, side="right") + system._base
    V = system._slopes[key] * XS + system._icpts[key]
    for fn, a, b in system._direct:
        V[:, a:b] = fn.eval_array(XS[:, a:b])
    g = system._gate_start
    slots = system._by_receiver

    def scatter(V, gate):
        if slots is None:
            return V @ system._block[g * gate :]
        return dynamics._gather_sum(V, *slots[gate])

    if system._gate_bounds is None:
        return scatter(V, False), np.broadcast_to(system._plain_alpha, X.shape)
    open_ = np.empty((X.shape[0], XS.shape[1] - g))
    for fn, a, b in gate_spans(system):
        open_[:, a - g : b - g] = fn.gate_mask(XS[:, a:b])
        V[:, a:b] *= open_[:, a - g : b - g]
    return scatter(V, False), system._plain_alpha + scatter(open_, True)


def wide_identity_system(n=100):
    """Directed ring whose first half of senders carry a saturation and the
    second half a gate: the table's rows are the agents in order (``R == n``),
    wide since every agent has one in-edge."""
    w = np.zeros((n, n))
    w[(np.arange(n) + 1) % n, np.arange(n)] = np.linspace(0.5, 1.5, n)
    fns = [Saturation(-1.0, 1.0)] * (n // 2) + [GatedIdentity(-1.0, 1.0)] * (n - n // 2)
    return System(build_digraph(w), {(i, (i + 1) % n): fns[i] for i in range(n)})


BINNED_SYSTEMS = {
    **{
        f"netgen-{n}": (lambda n=n: system_from_dict(load_netgen().wide_network(1, n)))
        for n in (100, 200, 1000)
    },
    "mixed": wide_system,
    "identity": wide_identity_system,
}


@functools.cache
def binned_system(name):
    """The wide systems of :class:`TestAgentBins`, built once per session."""
    return BINNED_SYSTEMS[name]()


class BinProbe(np.ndarray):
    """Knots that record the shape of every array binned against them."""

    def searchsorted(self, v, side="left", sorter=None):
        self.binned.append(np.shape(v))
        return np.asarray(self).searchsorted(v, side, sorter)


def binned_shapes(system, X):
    """The shapes the kernel bins for the batch ``X``, on a copy of the
    system whose knots are a :class:`BinProbe`: the kernel is prepared from
    the copy's attributes."""
    probe = copy.copy(system)
    knots = system._knots.view(BinProbe)
    knots.binned = []
    object.__setattr__(probe, "_knots", knots)
    input_sums(probe, X)
    return knots.binned


class TestAgentBins:
    """A wide table bins each agent's state once and gathers the bins to its
    rows; a narrow one bins the gathered rows."""

    @pytest.mark.parametrize("name", BINNED_SYSTEMS)
    @pytest.mark.parametrize("m", [1, 3, 8, 1000])
    def test_bit_identical_to_binning_rows(self, name, m):
        sys_ = binned_system(name)
        assert sys_._by_receiver is not None and sys_._knots.size
        assert sys_._gate_bounds is not None
        assert sys_._identity is (name == "identity")
        rng = np.random.default_rng(900 + m)
        rows = knot_probe_rows(sys_, rng)
        rows = np.vstack((rows, rng.uniform(-4.0, 4.0, size=(-len(rows) % m, sys_.n))))
        for X in np.split(rows, len(rows) // m):
            want = searched_bin_sums(sys_, X)
            assert_sums_match(input_sums(sys_, X), want, X)

    @pytest.mark.parametrize("m", [1, 8])
    def test_what_is_binned(self, m):
        rng = np.random.default_rng(m)
        for name in ("netgen-200", "mixed", "identity"):
            sys_ = binned_system(name)
            X = rng.uniform(-4.0, 4.0, size=(m, sys_.n))
            assert binned_shapes(sys_, X) == [(m, sys_.n)]
        # the dense block keeps binning rows: the gather of the bins would
        # cost more there than the searches it saves
        for sys_ in [bin_table_system(seed) for seed in range(3)] + [
            scenario_by_name("ex1").system,
            system_from_dict(load_netgen().wide_network(1, 50)),
        ]:
            assert sys_._by_receiver is None
            X = rng.uniform(-4.0, 4.0, size=(m, sys_.n))
            assert binned_shapes(sys_, X) == [(m, len(sys_._senders))]


def knot_union_system(kind, knots, rng):
    """A system whose piecewise-linear functions have the knot union
    ``knots``, the gate adding its knot at 0, on random weights:

    - ``dense``: the complete 4-agent digraph, its edges alternating
      between two functions, 8 table rows;
    - ``identity``: a 4-agent ring, one function on senders 0 and 1 and
      another on 2 and 3, so the rows are the agents;
    - ``gated``: the complete 4-agent digraph, its edges cycling through two
      functions and a gate, 12 rows;
    - ``wide``: a 48-agent ring, the two functions alternating by sender,
      which keeps receiver slots and bins its agents.
    """

    def pwl(xs):
        ys = rng.uniform(-2.0, 2.0, size=len(xs)).tolist()
        return PiecewiseLinear(tuple(zip(xs, ys)), *rng.uniform(-1.0, 1.0, size=2).tolist())

    f, g = pwl(knots), pwl(knots[::2])
    if kind in ("identity", "wide"):
        n = 4 if kind == "identity" else 48
        w = np.zeros((n, n))
        w[(np.arange(n) + 1) % n, np.arange(n)] = rng.uniform(0.5, 1.5, size=n)
        if kind == "identity":  # f on the first half of the senders, g after
            fns = [f if 2 * j < n else g for j in range(n)]
        else:
            fns = [(f, g)[j % 2] for j in range(n)]
        return System(build_digraph(w), {(j, (j + 1) % n): fns[j] for j in range(n)})
    w = rng.uniform(0.5, 1.5, size=(4, 4)) * (1.0 - np.eye(4))
    fns = (f, g) if kind == "dense" else (f, g, GatedIdentity(-1.0, 1.0))
    graph = build_digraph(w)
    return System(graph, {e: fns[k % len(fns)] for k, e in enumerate(sorted(graph.edges()))})


KNOT_UNIONS = st.lists(
    st.one_of(
        st.sampled_from([0.0, 5e-324, -5e-324, 1.0, -1.0]),
        st.floats(-1e3, 1e3, allow_nan=False),
    ),
    min_size=1,
    max_size=16,
    unique=True,
).map(sorted)
EXTREME_STATES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324]
MONTE_CARLO_JOBS = (  # scenario, batch size, RK4 steps: the benchmark's jobs
    ("ex1", 20, 200),
    ("ex2", 1000, 50),
    ("ex3", 50, 150),
    ("bipartite", 20, 200),
    ("discarded", 200, 100),
)


class TestCountedBins:
    """A batch of at least ``_COUNT_FROM`` binned states over a union of at
    most ``_COUNT_KNOTS`` knots counts the knots at or below each state
    instead of searching them; every sum keeps its bytes."""

    @pytest.mark.parametrize("kind", ["dense", "identity", "gated", "wide"])
    @given(knots=KNOT_UNIONS, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_searching(self, kind, knots, seed):
        rng = np.random.default_rng(seed)
        sys_ = knot_union_system(kind, knots, rng)
        gated = sys_._gate_bounds is not None
        assert (sys_._by_receiver is not None, sys_._identity, gated) == (
            kind == "wide",
            kind == "identity",
            kind == "gated",
        )
        G = sys_._knots
        pool = np.concatenate(
            (G, np.nextafter(G, -np.inf), np.nextafter(G, np.inf), EXTREME_STATES)
        )
        # the wide table bins its agents, the others their table rows
        width = sys_.n if kind == "wide" else len(sys_._senders)
        at = dynamics._COUNT_FROM // width
        assert at * width == dynamics._COUNT_FROM
        for m in (at - 1, at):
            X = rng.choice(pool, size=(m, sys_.n))
            counted = m == at and G.size <= dynamics._COUNT_KNOTS
            with np.errstate(all="ignore"):
                want = searched_bin_sums(sys_, X)
                assert_sums_match(input_sums(sys_, X), want, X)
                assert binned_shapes(sys_, X) == ([] if counted else [(m, width)])

    @pytest.mark.parametrize("extra", [0, 1])
    def test_unions_above_the_knot_cap_are_searched(self, extra):
        knots = np.linspace(-2.0, 2.0, dynamics._COUNT_KNOTS + extra).tolist()
        rng = np.random.default_rng(extra)
        sys_ = knot_union_system("identity", knots, rng)
        X = rng.uniform(-3.0, 3.0, size=(4 * dynamics._COUNT_FROM, sys_.n))
        assert_sums_match(input_sums(sys_, X), searched_bin_sums(sys_, X), X)
        assert binned_shapes(sys_, X) == ([X.shape] if extra else [])

    def test_counts_in_blocks(self):
        # 2**16 // (16 * 7) = 585 rows a block: one full block and a ragged one
        knots = np.sort(np.random.default_rng(1).uniform(-2.0, 2.0, size=16))
        X = np.random.default_rng(2).uniform(-3.0, 3.0, size=(1000, 7))
        X[:16, 3], X[-16:, 4] = knots, np.nextafter(knots, -np.inf)
        key = dynamics._count_knots(knots, X)
        assert key.dtype == np.intp
        assert key.tolist() == knots.searchsorted(X, side="right").tolist()

    def test_uint8_counts_at_the_cap(self):
        # the counts are summed in uint8; a cap of 256 knots would wrap
        assert dynamics._COUNT_KNOTS < 256
        knots = np.sort(np.random.default_rng(3).uniform(-2.0, 2.0, dynamics._COUNT_KNOTS))
        pool = np.concatenate(
            (
                knots,
                np.nextafter(knots, -np.inf),
                np.nextafter(knots, np.inf),
                [np.inf, -np.inf, np.nan],
            )
        )
        # 2**16 // (16 * 7) = 585 rows a block: the second block starts at
        # row 585, mid-batch, and the 51 states repeat through both blocks
        X = np.resize(pool, (1000, 7))
        key = dynamics._count_knots(knots, X)
        assert key.dtype == np.intp
        want = np.where(np.isnan(X), 0, knots.searchsorted(X, side="right"))
        assert key.tolist() == want.tolist()
        assert key.max() == dynamics._COUNT_KNOTS

    def test_monte_carlo_jobs_and_probe_keep_their_bytes(self, monkeypatch):
        netgen = system_from_dict(load_netgen().wide_network(1, 200))
        jobs = []
        for name, m, steps in MONTE_CARLO_JOBS:
            sc = scenario_by_name(name)
            if name == "ex2":  # criterion 4's starts inside the box
                x0 = seed_stream(1, m, sc.system.n, -1.0, 1.0)
            else:
                x0 = sc.sample_x0(seed=1, count=m)
            spec = IntegrationSpec(dt=1e-3, t_final=steps * 1e-3, record_stride=50)
            jobs.append((sc.system, x0, spec))
        assert binned_shapes(*jobs[1][:2]) == []  # ex2 at m=1000 counts

        def outputs():
            out = [integrate_batch(*job).states.tobytes() for job in jobs]
            probe = uniqueness_probe(netgen, (-1.0, 1.0), 64, seed=3)
            for o in probe.outcomes:
                eq = o.equilibrium
                out.append(o.error or (eq.method, eq.iterations, eq.point.tobytes()))
            return out

        counted = outputs()
        # the former loop, on the compiled rows
        former = [former_integrate_batch(*job).states.tobytes() for job in jobs]
        assert counted[: len(jobs)] == former
        # every batch searched, as before the size rule
        monkeypatch.setattr(dynamics, "_COUNT_FROM", math.inf)
        assert outputs() == counted


def compiled(system, fn_key=id):
    """Everything the compile leaves on ``system``: arrays as dtype, shape
    and bytes, functions by ``fn_key``."""

    def raw(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    def spans(entries):
        return [(fn_key(fn), a, b) for fn, a, b in entries]

    slots = system._by_receiver
    function, fns = system._edges
    graph = system.graph
    return {
        "knots": raw(system._knots),
        "base": raw(system._base),
        "slopes": raw(system._slopes),
        "icpts": raw(system._icpts),
        "senders": raw(system._senders),
        "identity": system._identity,
        "block": raw(system._block),
        "by_receiver": slots and [raw(a) for pair in slots for a in pair],
        "gate_start": system._gate_start,
        "plain_alpha": raw(system._plain_alpha),
        "direct": spans(system._direct),
        "one_piece": system._one_piece and [raw(a) for a in system._one_piece],
        "gate_bounds": system._gate_bounds and [raw(a) for a in system._gate_bounds],
        "distinct": [(key, fn_key(fn)) for key, fn in system.distinct],
        "edges": [raw(a) for a in (graph.senders, graph.receivers, graph.weight, function)]
        + [list(map(fn_key, fns))],
    }


def dense_form(system):
    """A system as a dense JSON record, one entry per edge."""
    return {
        "weights": system.graph.weights.tolist(),
        "constraints": [
            {"sender": j, "receiver": i, "fn": fn.to_dict()}
            for (j, i), fn in system.constraints.items()
        ],
    }


def loaded_forms(name):
    """The dense and the columnar load of a netgen network or of a
    ``random_catalog_system``, each through JSON text."""
    kind, arg = name.rsplit("-", 1)
    if kind == "netgen":
        dense = load_netgen().wide_network(1, int(arg))
    else:
        dense = dense_form(random_catalog_system(int(arg)))
    dense = system_from_dict(json.loads(json.dumps(dense)))
    return {
        "dense": dense,
        "columnar": system_from_dict(json.loads(json.dumps(system_to_dict(dense)))),
    }


TABLE_SYSTEMS = [f"netgen-{n}" for n in (50, 200, 1000)] + [
    f"catalog-{seed}" for seed in range(12)
]


class TestCompileFromTable:
    """The loaders pass their validated columns to the compile; a System
    built from the same graph and constraint map compiles the same."""

    @pytest.mark.parametrize("name", TABLE_SYSTEMS)
    def test_loaders_table_compiles_as_the_dict(self, name):
        for form, sys_ in loaded_forms(name).items():
            from_dict = System(sys_.graph, sys_.constraints)
            assert compiled(sys_) == compiled(from_dict), form

    def test_both_wide_and_narrow_scatters_are_covered(self):
        assert loaded_forms("netgen-50")["dense"]._block is not None
        assert loaded_forms("netgen-200")["dense"]._by_receiver is not None

    @pytest.mark.parametrize("name", ["netgen-50", "netgen-200", "catalog-3"])
    def test_edge_order_does_not_matter(self, name):
        dense = loaded_forms(name)["dense"]
        record = dense_form(dense)
        random_order = np.random.default_rng(5).permutation(len(record["constraints"]))
        record["constraints"] = [record["constraints"][k] for k in random_order]
        shuffled = system_from_dict(record)
        assert list(shuffled.constraints) != list(dense.constraints)
        assert compiled(shuffled, repr) == compiled(dense, repr)

    @pytest.mark.parametrize("name", ["netgen-50", "catalog-3"])
    def test_loaded_constraint_map_is_a_view_of_the_table(self, name):
        dense = loaded_forms(name)["dense"]
        record = dense_form(dense)
        random_order = np.random.default_rng(7).permutation(len(record["constraints"]))
        record["constraints"] = [record["constraints"][k] for k in random_order]
        columns = system_to_dict(dense)
        columns["edges"] = {
            key: [column[k] for k in random_order]
            for key, column in columns["edges"].items()
        }
        edges = columns["edges"]
        for sys_, keys in (
            (
                system_from_dict(record),
                [(e["sender"], e["receiver"]) for e in record["constraints"]],
            ),
            (system_from_dict(columns), list(zip(edges["sender"], edges["receiver"]))),
        ):
            function, fns = sys_._edges
            graph = sys_.graph
            table = zip(graph.senders.tolist(), graph.receivers.tolist(), function.tolist())
            view = sys_.constraints
            assert view is sys_.constraints and list(view) == keys
            for j, i, k in table:
                assert view[(j, i)] is fns[k]

    def test_table_is_sorted_with_functions_in_first_edge_order(self):
        a, b = Affine(0.5), Affine(0.5)  # equal values, two objects
        w = np.ones((4, 4)) - np.eye(4)
        keys = [(j, i) for i in range(4) for j in range(4) if i != j]
        sys_ = System(build_digraph(w), {key: (b, a)[k % 2] for k, key in enumerate(keys)})
        graph = sys_.graph
        function, fns = sys_._edges
        assert list(zip(graph.senders.tolist(), graph.receivers.tolist())) == sorted(keys)
        assert graph.weight.tolist() == [w[i, j] for j, i in sorted(keys)]
        assert fns[0] is sys_.constraints[(0, 1)] and len(fns) == 2
        for k, key in zip(function.tolist(), sorted(keys)):
            assert fns[k] is sys_.constraints[key]
        assert len(sys_.distinct) == 1 and sys_.distinct[0] == ((0, 1), fns[0])


class TestOneEdgeOrder:
    """A system is its graph plus one function column, whatever order its
    edges were given in."""

    @pytest.mark.parametrize("seed", range(12))
    def test_shuffled_map_dense_record_and_echo_compile_the_same(self, seed):
        system = random_catalog_system(seed)
        items = list(system.constraints.items())
        shuffle = np.random.default_rng(seed).permutation(len(items))
        shuffled = System(system.graph, dict(items[k] for k in shuffle.tolist()))
        assert list(shuffled.constraints) == [items[k][0] for k in shuffle.tolist()]
        assert compiled(shuffled) == compiled(system)
        echo = json.dumps(system_to_dict(shuffled))
        for record in (dense_form(shuffled), json.loads(echo)):
            loaded = system_from_dict(json.loads(json.dumps(record)))
            assert compiled(loaded, repr) == compiled(shuffled, repr)
            assert json.dumps(system_to_dict(loaded)) == echo

    def test_the_map_is_read_once(self):
        g = build_digraph([[0.0, 1.0], [1.0, 0.0]])
        fns = {(0, 1): Affine(0.5), (1, 0): Identity()}
        for read_first in (True, False):
            m = dict(fns)
            system = System(g, m)
            if read_first:
                system.constraints
            m[(0, 1)] = Affine(-3.0)
            m[(5, 5)] = Affine(1.0)
            assert system.constraints == fns
            assert all(system.constraints[key] is fn for key, fn in fns.items())
            assert rhs(system, [1.0, 2.0]) == pytest.approx([2.0 - 1.0, 0.5 * 1.0 - 2.0])
            with pytest.raises(TypeError):
                system.constraints[(0, 1)] = Affine(-3.0)


class TestIntegrationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegrationSpec(dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            IntegrationSpec(dt=1e-3, t_final=-1.0)
        with pytest.raises(ValueError):
            IntegrationSpec(dt=1e-3, t_final=1.0, method="leapfrog")
        with pytest.raises(ValueError):
            IntegrationSpec(dt=1e-3, t_final=1.0, record_stride=0)
        # integers beyond the float range
        with pytest.raises(ValueError, match="dt"):
            IntegrationSpec(dt=10**400, t_final=1)
        with pytest.raises(ValueError, match="t_final"):
            IntegrationSpec(dt=1e-3, t_final=10**400)
        # finite values whose step count overflows
        with pytest.raises(ValueError, match=r"dt=1e-300, t_final=10000000000\.0"):
            IntegrationSpec(dt=1e-300, t_final=1e10)

    def test_steps_and_stride(self):
        spec = IntegrationSpec(dt=1e-3, t_final=2.0)
        assert spec.steps() == 2000
        assert spec.stride() == 2


class TestIntegrate:
    def test_symmetric_pair_averages(self):
        spec = IntegrationSpec(dt=1e-3, t_final=20.0)
        traj = integrate(identity_pair(), [0.0, 2.0], spec)
        assert traj.final_state() == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_zero_horizon(self):
        traj = integrate(identity_pair(), [0.5, -0.5], IntegrationSpec(1e-3, 0.0))
        assert traj.times.tolist() == [0.0]
        assert traj.states.tolist() == [[0.5, -0.5]]

    def test_determinism_bit_identical(self):
        sys_ = scenario_by_name("sine").system
        x0 = np.linspace(-2, 2, sys_.n)
        spec = IntegrationSpec(dt=1e-3, t_final=1.0)
        a = integrate(sys_, x0, spec)
        b = integrate(sys_, x0, spec)
        assert a.states.tobytes() == b.states.tobytes()
        assert a.times.tobytes() == b.times.tobytes()

    def test_step_halving_changes_little(self):
        sys_ = scenario_by_name("sine").system
        x0 = np.linspace(-2.5, 2.5, sys_.n)
        coarse = integrate(sys_, x0, IntegrationSpec(1e-3, 2.0))
        fine = integrate(sys_, x0, IntegrationSpec(5e-4, 2.0))
        diff = np.abs(coarse.final_state() - fine.final_state()).max()
        assert diff < 1e-6

    def test_euler_close_to_rk4(self):
        spec_e = IntegrationSpec(1e-4, 2.0, method="euler")
        spec_r = IntegrationSpec(1e-4, 2.0, method="rk4")
        a = integrate(identity_pair(), [0.0, 2.0], spec_e).final_state()
        b = integrate(identity_pair(), [0.0, 2.0], spec_r).final_state()
        assert np.abs(a - b).max() < 1e-3

    def test_divergence_partial_trajectory(self):
        sys_ = two_agent(Affine(-3.0, 0.0), Affine(-3.0, 0.0))
        with pytest.raises(NonFiniteStateError) as exc:
            integrate(sys_, [1.0, -1.0], IntegrationSpec(1e-2, 30.0))
        partial = exc.value.partial
        assert partial is not None
        assert partial.states.shape[1] == 2
        assert np.all(np.isfinite(partial.states))

    @pytest.mark.parametrize("stride", [100, 10**6, 10**9])
    def test_long_stride_stops_within_64_steps(self, stride):
        # without the 64-step check this run overflows silently and reports
        # the divergence at the horizon, t = 400
        sys_ = two_agent(Affine(-3.0, 0.0), Affine(-3.0, 0.0))
        dt = 0.01
        with pytest.raises(NonFiniteStateError) as every_step:
            integrate(sys_, [3.0, -2.0], IntegrationSpec(dt, 400.0, record_stride=1))
        assert 13.0 < every_step.value.time <= 14.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as exc:
                integrate(sys_, [3.0, -2.0], IntegrationSpec(dt, 400.0, record_stride=stride))
        assert every_step.value.time <= exc.value.time
        assert exc.value.time <= every_step.value.time + dynamics._CHECK_EVERY * dt
        times = exc.value.partial.times.tolist()
        assert times == [k * stride * dt for k in range(len(times))]
        assert times[-1] < exc.value.time

    @pytest.mark.parametrize("stride", [7, 50, 64])
    def test_short_strides_check_only_the_records(self, stride):
        # a stride of at most 64 steps checks the states exactly when it
        # records them: the run stops at the first record at or after the
        # step a stride-1 run stops at, not at an earlier 64-step check
        sys_ = two_agent(Affine(-3.0, 0.0), Affine(-3.0, 0.0))
        dt = 0.01
        stops = []
        for every in (1, stride):
            with pytest.raises(NonFiniteStateError) as exc:
                integrate(sys_, [3.0, -2.0], IntegrationSpec(dt, 400.0, record_stride=every))
            stops.append(round(exc.value.time / dt))
        assert stops[0] == 1336
        assert stops[1] == -(-stops[0] // stride) * stride

    def test_unallocatable_record_count_is_a_validation_error(self, monkeypatch):
        # a record count whose buffers memory cannot hold fails as numpy's
        # allocation would, without allocating
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            if math.prod(np.atleast_1d(shape).tolist()) > 10**12:
                raise MemoryError("Unable to allocate 7.11 PiB for an array")
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(dynamics.np, "empty", empty)
        spec = IntegrationSpec(1e-9, 1e6, record_stride=1)
        with pytest.raises(ValidationError, match=r"record_stride=1 keeps 1000000000000001 samples"):
            integrate(identity_pair(), [0.0, 2.0], spec)

    def test_batch_matches_single_runs(self):
        sys_ = scenario_by_name("ex2").system
        X0 = np.array([np.linspace(-3, 3, 5), np.linspace(2, -4, 5)])
        spec = IntegrationSpec(1e-3, 1.0)
        batch = integrate_batch(sys_, X0, spec)
        for r in range(2):
            single = integrate(sys_, X0[r], spec)
            assert batch.single(r).states == pytest.approx(single.states)

    def test_empty_batch(self):
        sys_ = scenario_by_name("ex2").system
        batch = integrate_batch(sys_, np.zeros((0, sys_.n)), IntegrationSpec(1e-2, 0.05))
        assert batch.states.shape == (6, 0, sys_.n)
        assert batch.times.tolist() == [k * 1e-2 for k in range(6)]

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            integrate_batch(identity_pair(), np.zeros((2, 3)), IntegrationSpec(1e-3, 1))

    def test_csv_matches_per_value_formatting(self):
        special = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 1.2345678901234568e17, 0.1]
        states = np.array([special, special[::-1]]).T
        traj = dynamics.Trajectory(np.arange(len(special)) * 0.1, states, 0.1)
        traj.channels = {"Y": np.array(special), "xm": -np.array(special)}
        cols = ["t", "x_1", "x_2", "Y", "xm"]
        data = [traj.times, states[:, 0], states[:, 1], traj.channels["Y"], traj.channels["xm"]]
        lines = [",".join(cols)]
        for row in np.column_stack(data):
            lines.append(",".join(f"{v:.17g}" for v in row))
        assert traj.to_csv() == "\n".join(lines) + "\n"

    def test_csv_header_and_shape(self):
        traj = integrate(identity_pair(), [0.0, 2.0], IntegrationSpec(1e-2, 1.0))
        attach_channels(traj, box=BoxRaySpec(-1, 1, 0, -1, -1))
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "t,x_1,x_2,Y,dist,xM,xm"
        assert len(lines) == 1 + len(traj.times)
        # round-trip one row through float parsing
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == traj.times[0]


def former_integrate_batch(
    system: System, X0, spec: IntegrationSpec
) -> BatchTrajectory:
    """Fixed-step integration of many initial states in lockstep.

    The states are checked against the divergence limit at every recorded
    step, and at least every ``_CHECK_EVERY = 64`` steps whatever the
    stride, so a long stride cannot carry a diverging run into overflow.
    A record count that memory cannot hold is a ``ValidationError``."""
    X = np.array(X0, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != system.n:
        raise ValueError(f"X0 must have shape (m, {system.n})")
    if not np.all(np.isfinite(X)):
        raise NonFiniteStateError("non-finite initial state")
    steps = spec.steps()
    stride = spec.stride()
    check = min(stride, _CHECK_EVERY)
    dt = spec.dt

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
        record = k % stride == 0 or k == steps
        if record or k % check == 0:
            # NaN and inf fail the comparison too; an empty batch passes
            if not (np.abs(X).max(initial=0.0) <= _DIVERGENCE_LIMIT):
                raise NonFiniteStateError(
                    f"divergence detected at t={k * dt:.6g}",
                    partial=BatchTrajectory(
                        rec_times[:count], rec_states[:count], dt
                    ),
                    time=k * dt,
                )
        if record:
            rec_times[count] = k * dt
            rec_states[count] = X
            count += 1
    return BatchTrajectory(rec_times, rec_states, dt)


def run_outcome(integrate_fn, system, X0, spec):
    """What a caller sees of one integration: the record bytes, or the
    error's message, time and partial record bytes."""
    try:
        batch = integrate_fn(system, X0, spec)
    except NonFiniteStateError as err:
        partial = err.partial
        return (
            "raised",
            str(err),
            err.time,
            partial.times.tobytes(),
            partial.states.tobytes(),
            partial.states.shape,
        )
    return "returned", batch.times.tobytes(), batch.states.tobytes(), batch.states.shape


def oracle_loop_systems():
    """The nine scenarios and an edgeless 3-agent system."""
    systems = {sc.name: sc.system for sc in builtin_scenarios()}
    systems["edgeless-3"] = System(build_digraph(np.zeros((3, 3))), {})
    return systems


def heavy_ring(fn):
    """A 2-agent ring at weight 100 with ``fn`` on both edges."""
    g = build_digraph([[0.0, 100.0], [100.0, 0.0]])
    return System(g, {(0, 1): fn, (1, 0): fn})


def fixed_point_runs():
    """Runs with ``default_dt`` that reach a fixed point of the step map,
    by name: the system, one start, and a horizon in steps past the exit.
    necessity-2agent starts at an equilibrium and never moves; the heavy
    rings freeze mid-run; the signed-zero ring's first step turns its
    -0.0 start into +0.0, equal by value but not by bits."""
    return {
        "necessity-2agent": (scenario_by_name("necessity-2agent").system, (0.5, 1.5), 200),
        "saturation-100": (heavy_ring(Saturation(-1.0, 1.0)), (3.0, -2.0), 1000),
        "affine-100": (heavy_ring(Affine(0.5, 1.0)), (3.0, -2.0), 1000),
        "signed-zero": (two_agent(Affine(0.5, 0.0), Affine(0.5, 0.0)), (-0.0, -0.0), 200),
    }


def count_rhs_calls(monkeypatch):
    """Patch ``dynamics.rhs_batch`` to log each call; return the log."""
    calls, rhs = [], dynamics.rhs_batch

    def counting_rhs(system, X, kernel=None):
        calls.append(len(X))
        return rhs(system, X, kernel)

    monkeypatch.setattr(dynamics, "rhs_batch", counting_rhs)
    return calls


def row_operands(system):
    """The kernel's row operands as the system compiles them."""
    return [
        system._base,
        system._plain_alpha,
        *(system._one_piece or ()),
        *(system._gate_bounds or ()),
    ]


def kernel_cells(kernel):
    """The variables a prepared kernel closes over, by name."""
    names = kernel.__code__.co_freevars
    return {name: cell.cell_contents for name, cell in zip(names, kernel.__closure__)}


def tile_heights(system, m):
    """The row counts of the operands of the kernel ``integrate_batch``
    prepares for ``m`` states: ``{m}`` when every one is tiled, ``{1}`` when
    every one broadcasts."""
    cells = kernel_cells(dynamics._prepare(system, m))
    rows = [cells["base"], cells["alpha"], *(cells["one_piece"] or ())]
    rows += [cells[k] for k in ("lo", "hi") if cells[k] is not None]
    return {len(row) for row in rows}


class TestFormerLoopIsTheOracle:
    """The integration loop against the former one, which checked every
    recorded state as it was made and called ``rhs_batch`` on the compiled
    row operands, where the loop shapes them to a batch of more than one
    state, up to ``_TILE_MAX`` values each: the same bytes, the same
    errors."""

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("m", [0, 1, 3, 20, 50, 200, 1000])
    @pytest.mark.parametrize("name", sorted(oracle_loop_systems()))
    def test_records_match(self, name, m, method):
        system = oracle_loop_systems()[name]
        if m > 1:  # the monte-carlo batch sizes among them
            assert tile_heights(system, m) == {m}
        X0 = np.random.default_rng(m).uniform(-3.0, 3.0, (m, system.n))
        dt = default_dt(system)
        # 131 steps: two 64-step blocks and three steps more
        for stride in (None, 1, 7, 64, 65, 100):
            spec = IntegrationSpec(dt, 131 * dt, method, stride)
            assert spec.steps() == 131
            want = run_outcome(former_integrate_batch, system, X0, spec)
            assert want[0] == "returned"
            assert run_outcome(integrate_batch, system, X0, spec) == want

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("name", sorted(fixed_point_runs()))
    def test_records_match_where_the_run_freezes(self, name, m, method):
        system, start, steps = fixed_point_runs()[name]
        X0 = np.tile(start, (m, 1))
        dt = default_dt(system)
        for stride in (None, 1, 7, 64, 65, 100, 10**9):
            spec = IntegrationSpec(dt, steps * dt, method, stride)
            assert spec.steps() == steps
            want = run_outcome(former_integrate_batch, system, X0, spec)
            assert want[0] == "returned"
            assert run_outcome(integrate_batch, system, X0, spec) == want

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    def test_a_frozen_row_does_not_stop_a_moving_one(self, method):
        # from (3, -2) the ring freezes by step 188; from (1, -1) it moves
        # until step 3717, past this horizon
        system = heavy_ring(Saturation(-1.0, 1.0))
        X0 = np.array([[3.0, -2.0], [1.0, -1.0]])
        for stride in (None, 1, 7, 64, 65, 100, 10**9):
            spec = IntegrationSpec(1e-3, 1.0, method, stride)
            want = run_outcome(former_integrate_batch, system, X0, spec)
            assert want[0] == "returned"
            assert run_outcome(integrate_batch, system, X0, spec) == want

    @pytest.mark.parametrize("stride", [1, 7, 100, 10**6])
    def test_a_fixed_point_past_the_limit_still_raises(self, stride):
        # an identity ring holds any consensus state, here one past the
        # divergence limit from the start
        X0 = np.full((1, 2), 2.0 * _DIVERGENCE_LIMIT)
        spec = IntegrationSpec(1e-3, 1.0, record_stride=stride)
        want = run_outcome(former_integrate_batch, identity_pair(), X0, spec)
        assert want[0] == "raised"
        assert run_outcome(integrate_batch, identity_pair(), X0, spec) == want

    @staticmethod
    def assert_divergence_matches(X0, stride):
        system = two_agent(Affine(-3.0, 0.0), Affine(-3.0, 0.0))
        X0 = np.array(X0)
        if len(X0) > 1:
            assert tile_heights(system, len(X0)) == {len(X0)}
        spec = IntegrationSpec(0.01, 400.0, record_stride=stride)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = run_outcome(former_integrate_batch, system, X0, spec)
            assert want[0] == "raised"
            assert run_outcome(integrate_batch, system, X0, spec) == want

    @pytest.mark.parametrize("stride", [1, 3, 64, 100, 10**6])
    def test_divergence_matches(self, stride):
        self.assert_divergence_matches([[3.0, -2.0]], stride)

    @pytest.mark.parametrize("stride", [1, 3, 64, 100, 10**6])
    def test_divergence_matches_on_a_tiled_batch(self, stride):
        self.assert_divergence_matches([[3.0, -2.0], [1.0, 1.0], [0.5, -0.25]], stride)

    @pytest.mark.parametrize("shape", ["empty", "tiled", "broadcast"])
    def test_wide_network(self, shape):
        system = binned_system("netgen-200")
        narrowest = min(row.shape[1] for row in row_operands(system))
        # past the bound every operand stays a row and broadcasts
        m = {"empty": 0, "tiled": 8, "broadcast": dynamics._TILE_MAX // narrowest + 1}[shape]
        if m:
            assert tile_heights(system, m) == ({m} if shape == "tiled" else {1})
        X0 = np.random.default_rng(m).uniform(-3.0, 3.0, (m, system.n))
        spec = IntegrationSpec(1e-3, 13e-3, record_stride=5)
        want = run_outcome(former_integrate_batch, system, X0, spec)
        assert want[0] == "returned"
        assert run_outcome(integrate_batch, system, X0, spec) == want

    @pytest.mark.parametrize("stride", [1, 8])
    def test_raises_at_a_mid_block_step(self, stride):
        # the ring first leaves the limit at step 1336 = 20 * 64 + 56, a
        # recorded step; the run stops there, not at the block end 1344
        system = two_agent(Affine(-3.0, 0.0), Affine(-3.0, 0.0))
        dt = 0.01
        before = integrate(system, [3.0, -2.0], IntegrationSpec(dt, 1335 * dt, record_stride=1))
        assert np.abs(before.states).max() <= _DIVERGENCE_LIMIT
        with pytest.raises(NonFiniteStateError) as exc:
            integrate(system, [3.0, -2.0], IntegrationSpec(dt, 400.0, record_stride=stride))
        assert 1336 % _CHECK_EVERY != 0
        assert exc.value.time == 1336 * dt
        assert str(exc.value) == "divergence detected at t=13.36"
        times = exc.value.partial.times
        assert times.tolist() == [k * stride * dt for k in range(1336 // stride)]
        assert exc.value.partial.states.tobytes() == before.states[::stride].tobytes()


def kernel_systems():
    """The nine scenarios, an edgeless 3-agent system and the n = 200
    benchmark network, whose table keeps receiver slots."""
    return {**oracle_loop_systems(), "netgen-200": binned_system("netgen-200")}


def flip_sizes(system):
    """The batch sizes around each one at which a choice of the prepared
    kernel flips: the empty batch and one and two states (tiling), either
    side of ``_TAKE_BELOW`` (the gather), of the smallest batch whose bins
    are counted (``_COUNT_FROM``, 614 and 615 states on 5 rows), and of the
    largest batch each row operand is tiled for (``_TILE_MAX``)."""
    take = dynamics._TAKE_BELOW
    sizes = {0, 1, 2, take - 1, take, take + 1}
    by_agent = system._by_receiver is not None and not system._identity
    binned = system.n if by_agent else len(system._senders)
    if binned:
        at = -(-dynamics._COUNT_FROM // binned)
        sizes |= {at - 1, at}
    for width in {row.shape[1] for row in row_operands(system)} - {0}:
        top = dynamics._TILE_MAX // width
        sizes |= {top - 1, top, top + 1}
    return sorted(sizes)


class TestPreparedKernel:
    """The kernel prepared for a batch size, as ``integrate_batch`` and an
    ad-hoc ``rhs_batch`` prepare it, against the former kernels, byte for
    byte, at the sizes where its choices flip:
    ``searched_bin_sums`` everywhere, and ``per_span_sums`` where the dense
    product is the scatter."""

    @pytest.mark.parametrize("name", sorted(kernel_systems()))
    def test_bit_identical_where_the_choices_flip(self, name):
        system = kernel_systems()[name]
        rng = np.random.default_rng(11)
        probe = knot_probe_rows(system, rng, extra=0)
        for m in flip_sizes(system):
            X = rng.uniform(-4.0, 4.0, size=(m, system.n))
            X[: len(probe)] = probe[:m]
            want = searched_bin_sums(system, X)
            if system._by_receiver is None:  # a wide table's sums round apart
                assert_sums_match(per_span_sums(system, X), want, X)
            assert_sums_match(dynamics._prepare(system, m)(X), want, X)

    def test_the_choices_flip_at_the_stated_sizes(self):
        # ex1: 12 dense rows on 5 agents, 9 live knots
        system = scenario_by_name("ex1").system
        assert (len(system._senders), system.n, system._knots.size) == (12, 5, 9)

        def cells(m):
            return kernel_cells(dynamics._prepare(system, m))

        take = dynamics._TAKE_BELOW
        assert cells(take - 1)["take"] and not cells(take)["take"]
        at = dynamics._COUNT_FROM // 12
        assert not cells(at - 1)["count"] and cells(at)["count"]
        top = dynamics._TILE_MAX // 12  # the bin offsets; the in-degree is 5 wide
        assert tile_heights(system, top) == {top}
        assert tile_heights(system, top + 1) == {top + 1, 1}
        assert tile_heights(system, dynamics._TILE_MAX // 5 + 1) == {1}
        assert tile_heights(system, 1) == {1}
        # one state reads the compiled rows themselves
        single = kernel_cells(dynamics._prepare(system, 1))
        assert single["base"] is system._base and single["alpha"] is system._plain_alpha
        # a wide table gathers with take at any size
        assert kernel_cells(dynamics._prepare(binned_system("netgen-200"), 1000))["take"]


class TestSeams:
    """``integrate_batch`` prepares one kernel per call and evaluates every
    stage through the module-level ``rhs_batch``, which profilers and tests
    patch."""

    @pytest.mark.parametrize("method, per_step", [("rk4", 4), ("euler", 1)])
    @pytest.mark.parametrize("m", [1, 3])
    def test_one_kernel_and_one_rhs_batch_call_per_stage(self, method, per_step, m, monkeypatch):
        prepared, kernels = [], []
        prepare, rhs = dynamics._prepare, dynamics.rhs_batch

        def counting_prepare(system, m):
            prepared.append(prepare(system, m))
            return prepared[-1]

        def counting_rhs(system, X, kernel=None):
            kernels.append(kernel)
            return rhs(system, X, kernel)

        monkeypatch.setattr(dynamics, "_prepare", counting_prepare)
        monkeypatch.setattr(dynamics, "rhs_batch", counting_rhs)
        system = scenario_by_name("ex1").system
        X0 = np.random.default_rng(m).uniform(-3.0, 3.0, (m, system.n))
        integrate_batch(system, X0, IntegrationSpec(1e-3, 37e-3, method, 5))
        assert len(prepared) == 1
        assert len(kernels) == per_step * 37
        assert all(kernel is prepared[0] for kernel in kernels)


class TestFixedPointExit:
    """A run stops stepping at the first check, after step 1 or at a
    64-step block end, at which every state has the bits it had one step
    before; a run that never gets there makes every step."""

    @pytest.mark.parametrize(
        "name, method, frozen, exit_step",
        [
            ("saturation-100", "rk4", 188, 192),
            ("saturation-100", "euler", 169, 192),
            ("affine-100", "rk4", 681, 704),
            ("affine-100", "euler", 665, 704),
            # +0.0 == -0.0: a value test would stop after step 1
            ("signed-zero", "rk4", 1, 64),
            ("signed-zero", "euler", 1, 64),
        ],
    )
    def test_exits_at_the_first_check_past_the_fixed_point(
        self, name, method, frozen, exit_step, monkeypatch
    ):
        system, start, steps = fixed_point_runs()[name]
        dt = default_dt(system)
        spec = IntegrationSpec(dt, steps * dt, method, 1)
        states = integrate(system, start, spec).states
        # the first state the step map returns bit for bit
        bits = [row.tobytes() for row in states[: frozen + 2]]
        assert bits[frozen] == bits[frozen + 1] != bits[frozen - 1]
        calls = count_rhs_calls(monkeypatch)
        integrate(system, start, spec)
        assert len(calls) == (4 if method == "rk4" else 1) * exit_step

    @pytest.mark.parametrize("method, calls", [("rk4", 4), ("euler", 1)])
    def test_a_start_at_a_fixed_point_makes_one_step(self, method, calls, monkeypatch):
        sc = scenario_by_name("necessity-2agent")
        spec = IntegrationSpec(sc.integration.dt, sc.integration.t_final, method)
        assert spec.steps() == 10_000
        log = count_rhs_calls(monkeypatch)
        traj = integrate(sc.system, sc.x0.sample(sc.system.n)[0], spec)
        assert len(log) == calls
        assert len(traj.times) == 1001
        assert traj.states.tolist() == [[0.5, 1.5]] * 1001

    def test_a_run_that_never_freezes_makes_every_step(self, monkeypatch):
        sc = scenario_by_name("ex4")
        calls = count_rhs_calls(monkeypatch)
        integrate(sc.system, sc.x0.sample(sc.system.n)[0], sc.integration)
        assert len(calls) == 4 * sc.integration.steps() == 20_000

    def test_a_batch_with_one_moving_row_makes_every_step(self, monkeypatch):
        X0 = np.array([[3.0, -2.0], [1.0, -1.0]])
        calls = count_rhs_calls(monkeypatch)
        integrate_batch(heavy_ring(Saturation(-1.0, 1.0)), X0, IntegrationSpec(1e-3, 1.0))
        assert len(calls) == 4 * 1000

    @pytest.mark.parametrize("stride", [1, 8, 10**6])
    def test_a_divergence_still_raises_where_it_did(self, stride, monkeypatch):
        # the Affine(-3) ring leaves the limit at step 1336 and the run
        # steps on to the block end 1344; a stride of at most 64 reports the
        # record at step 1336, a longer one the state checked at 1344
        system = two_agent(Affine(-3.0, 0.0), Affine(-3.0, 0.0))
        calls = count_rhs_calls(monkeypatch)
        with pytest.raises(NonFiniteStateError) as exc:
            integrate(system, [3.0, -2.0], IntegrationSpec(0.01, 400.0, record_stride=stride))
        assert len(calls) == 4 * 1344
        stop = 1336 if stride <= _CHECK_EVERY else 1344
        assert str(exc.value) == f"divergence detected at t={stop * 0.01:.6g}"
        assert len(exc.value.partial.times) == -(-stop // stride)


BOX = BoxRaySpec(-1.0, 1.0, 0.0, -1.0, -1.0)


class TestMonitors:
    def constant_traj(self):
        return integrate(
            two_agent(Affine(-0.5, 0.0), Affine(-0.5, 0.0)),
            [0.0, 0.0],
            IntegrationSpec(1e-2, 1.0),
        )

    def test_constant_equilibrium_all_pass(self):
        traj = self.constant_traj()
        report = monitor_trajectory(
            traj,
            two_agent(Affine(-0.5, 0.0), Affine(-0.5, 0.0)),
            ["box_invariance", "y_monotone", "v_monotone", "lemma6", "consensus"],
            box=BOX,
            equilibrium=np.zeros(2),
            eq_spec=EquilibriumRaySpec(-1.0, -1.0),
        )
        assert all(r.passed for r in report.values())

    def test_missing_box_witness(self):
        traj = self.constant_traj()
        with pytest.raises(MissingWitnessError):
            monitor_trajectory(traj, identity_pair(), ["y_monotone"])

    def test_missing_equilibrium_witness(self):
        traj = self.constant_traj()
        with pytest.raises(MissingWitnessError):
            monitor_trajectory(traj, identity_pair(), ["v_monotone"], box=BOX)

    def test_unknown_check(self):
        traj = self.constant_traj()
        with pytest.raises(ValueError):
            monitor_trajectory(traj, identity_pair(), ["telepathy"], box=BOX)

    def test_consensus_check_on_converged_pair(self):
        traj = integrate(identity_pair(), [0.0, 2.0], IntegrationSpec(1e-3, 20.0))
        report = monitor_trajectory(traj, identity_pair(), ["consensus"])
        assert report["consensus"].passed
        assert report["consensus"].value < 1e-3

    def test_consensus_check_fails_without_convergence(self):
        traj = integrate(identity_pair(), [0.0, 2.0], IntegrationSpec(1e-3, 0.1))
        report = monitor_trajectory(traj, identity_pair(), ["consensus"])
        assert not report["consensus"].passed

    def test_distance_decay_failure_reports_final_distance(self):
        sc = scenario_by_name("necessity-2agent")
        traj = integrate(sc.system, sc.sample_x0(seed=0)[0], sc.integration)
        report = monitor_trajectory(
            traj, sc.system, ["distance_decay"], box=sc.box_spec
        )
        res = report["distance_decay"]
        assert not res.passed
        assert res.value == pytest.approx(0.5, abs=1e-6)

    def test_y_monotone_on_contracting_pair(self):
        sys_ = two_agent(Affine(-0.5, 0.0), Affine(-0.5, 0.0))
        traj = integrate(sys_, [3.0, -2.0], IntegrationSpec(1e-3, 10.0))
        report = monitor_trajectory(traj, sys_, ["y_monotone", "lemma6"], box=BOX)
        assert all(r.passed for r in report.values())

    def test_lemma6_detects_escape(self):
        # expanding dynamics violate every case bound eventually
        sys_ = two_agent(Affine(-3.0, 0.0), Affine(-3.0, 0.0))
        traj = integrate(sys_, [2.0, -2.0], IntegrationSpec(1e-3, 2.0))
        report = monitor_trajectory(traj, sys_, ["lemma6"], box=BOX)
        assert not report["lemma6"].passed

    # Hand-made trajectories whose first state makes an edge term attain
    # Y(t0): with slopes -1 and the anchor at one box end, (2, 0) lifts
    # x_max - box_lo to 3 against 2 for every other term, and (0, -2)
    # lifts box_hi - x_min the same way. The monitor's tolerance is
    # 10 * dt * max(a_bar, 1) = 0.1.
    @pytest.mark.parametrize(
        "term, anchor, x_max, x_min, passed, value, bound",
        [
            ("xM_minus_lo", 1.0, [2.0, 1.5, 1.0], [0.0, -0.5, -0.75], True, -0.25,
             "x_min >= min(x_min(0), box_lo) = -1"),
            ("xM_minus_lo", 1.0, [2.0, 1.0], [0.0, -1.5], False, 0.5,
             "x_min >= min(x_min(0), box_lo) = -1"),
            ("hi_minus_xm", -1.0, [0.0, 0.5, 0.75], [-2.0, -1.5, -1.0], True, -0.25,
             "x_max <= max(x_max(0), box_hi) = 1"),
            ("hi_minus_xm", -1.0, [0.0, 1.5], [-2.0, -1.0], False, 0.5,
             "x_max <= max(x_max(0), box_hi) = 1"),
        ],
    )
    def test_lemma6_edge_term_cases(self, term, anchor, x_max, x_min, passed, value, bound):
        spec = BoxRaySpec(-1.0, 1.0, anchor, -1.0, -1.0)
        states = np.column_stack([x_max, x_min])
        assert lyapunov_Y(states[0], spec) == (3.0, term)
        traj = Trajectory(0.01 * np.arange(len(states)), states, 0.01)
        res = monitor_trajectory(traj, identity_pair(), ["lemma6"], box=spec)["lemma6"]
        assert (res.passed, res.value) == (passed, value)
        assert res.detail == f"case {term}: {bound} (tol 0.1)"


def monotone_oracle(series, tol_rel, tol_abs):
    """The per-sample loop: the first sample that rises past both tolerances."""
    prev = series[0]
    for k in range(1, len(series)):
        if series[k] > prev * (1.0 + tol_rel) + tol_abs and series[k] > prev + tol_abs:
            return False, k
        prev = series[k]
    return True, None


class TestChannels:
    @pytest.mark.parametrize(
        "series",
        [
            [1.0],
            [2.0, 2.0, 2.0, 2.0],
            [3.0, 2.0, 1.0, 1.0, 0.0],
            [1.0, 1.0 + 0.5e-9, 1.0 + 1e-9, 1.0 + 3e-9],
            [0.0, 1e-12, 2e-12, 2.5e-12, 5e-12],
            [5.0, 4.0, 4.0, 4.5, 3.0, 6.0],
            [1.0, 2.0],
        ],
    )
    def test_monotone_matches_the_loop(self, series):
        series = np.asarray(series)
        assert _monotone(series) == monotone_oracle(
            series, MONOTONE_TOL_REL, MONOTONE_TOL_ABS
        )

    def test_monotone_matches_the_loop_on_seeded_walks(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            steps = rng.choice([-1.0, 0.0, 1e-10, 1e-13, 1.0], size=30)
            series = np.cumsum(steps)
            assert _monotone(series) == monotone_oracle(
                series, MONOTONE_TOL_REL, MONOTONE_TOL_ABS
            )

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "necessity-2agent"])
    def test_channels_equal_per_sample_oracle(self, name):
        sc = scenario_by_name(name)
        traj = integrate(sc.system, sc.sample_x0(3)[0], IntegrationSpec(1e-3, 0.5))
        box = sc.box_spec or BoxRaySpec(-1.0, 1.0, 0.0, -1.0, -1.0)
        eq = np.linspace(-0.5, 0.5, sc.system.n)
        eq_spec = EquilibriumRaySpec(-0.5, -2.0)
        ch = attach_channels(traj, box, eq, eq_spec).channels
        for k, x in enumerate(traj.states):
            assert ch["Y"][k] == oracle_Y(x, box)[0]
            assert ch["dist"][k] == oracle_dist(x, box.box_lo, box.box_hi)
            assert ch["V"][k] == oracle_V(x, eq, eq_spec)
            assert (ch["xM"][k], ch["xm"][k]) == (x.max(), x.min())

    def test_attach_replaces_channels_of_an_earlier_call(self):
        traj = integrate(identity_pair(), [0.0, 2.0], IntegrationSpec(1e-2, 0.5))
        attach_channels(traj, BOX, np.zeros(2), EquilibriumRaySpec(-1.0, -1.0))
        attach_channels(traj, BoxRaySpec(0.0, 3.0, 1.0, -1.0, -1.0))
        assert set(traj.channels) == {"xM", "xm", "Y", "dist"}
        assert traj.channels["dist"][-1] == distance_to_box(traj.states[-1], 0.0, 3.0)

    def test_monitors_attach_channels_once(self, monkeypatch):
        calls = []
        real = dynamics.attach_channels

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dynamics, "attach_channels", counted)
        sys_ = two_agent(Affine(-0.5, 0.0), Affine(-0.5, 0.0))
        traj = integrate(sys_, [3.0, -2.0], IntegrationSpec(1e-2, 2.0))
        report = monitor_trajectory(
            traj,
            sys_,
            ["y_monotone", "v_monotone", "distance_decay", "lemma6", "consensus"],
            box=BOX,
            equilibrium=np.zeros(2),
            eq_spec=EquilibriumRaySpec(-1.0, -1.0),
        )
        assert len(calls) == 1
        assert report["y_monotone"].value == lyapunov_Y(traj.states[-1], BOX)[0]
        assert report["v_monotone"].value == lyapunov_V(
            traj.states[-1], np.zeros(2), EquilibriumRaySpec(-1.0, -1.0)
        )

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tcconsensus import build_digraph, is_strongly_connected, row_stats
from tcconsensus.errors import (
    NegativeWeightError,
    NonFiniteError,
    NonSquareError,
    NonzeroDiagonalError,
)
from test_dynamics import load_netgen

IRREGULAR_5 = [
    [0, 0, 3.6, 0, 0],
    [0, 0, 4.6, 1.3, 6.5],
    [3.6, 0, 0, 0, 7.6],
    [0.5, 1.4, 2.1, 0, 0],
    [2.9, 6.5, 0, 0, 0],
]


def complete(n):
    return np.ones((n, n)) - np.eye(n)


class TestBuildDigraph:
    def test_irregular_matrix_valid(self):
        g = build_digraph(IRREGULAR_5)
        assert g.n == 5

    def test_graphs_compare_and_hash_by_identity(self):
        g, h = build_digraph(IRREGULAR_5), build_digraph(IRREGULAR_5)
        assert g == g and g != h and not (g == h)
        assert hash(g) == hash(g) and len({g, h}) == 2

    def test_zero_matrix_is_empty_graph(self):
        g = build_digraph(np.zeros((2, 2)))
        assert g.edges() == []

    def test_all_ones_diagonal_rejected(self):
        with pytest.raises(NonzeroDiagonalError):
            build_digraph(np.ones((5, 5)))

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            build_digraph(np.zeros((2, 3)))

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeightError):
            build_digraph([[0, -1], [0, 0]])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            build_digraph([[0, np.inf], [0, 0]])

    def test_weights_immutable(self):
        g = build_digraph(IRREGULAR_5)
        with pytest.raises(ValueError):
            g.weights[0, 0] = 1.0

    def test_edges_sender_first(self):
        g = build_digraph([[0, 2], [0, 0]])  # a_01 = 2: edge 1 -> 0
        assert g.edges() == [(1, 0)]


class TestWeightsAreNumbers:
    # np.array would read True as 1.0, '1.5' as 1.5 and None as NaN
    @pytest.mark.parametrize(
        "weights, bad",
        [
            ([[0, True], ["1.5", 0]], "True"),
            ([[0, 1.0], ["1.5", 0]], "'1.5'"),
            ([[0, None], [1.0, 0]], "None"),
            ([(0, 1.0), (np.True_, 0)], "np.True_|True"),
        ],
    )
    def test_list_entries_must_be_numbers(self, weights, bad):
        with pytest.raises(TypeError, match=f"weight must be a number, got ({bad})$"):
            build_digraph(weights)

    @pytest.mark.parametrize(
        "weights",
        [
            np.array([[False, True], [True, False]]),
            np.array([["0", "1.5"], ["1", "0"]]),
            np.array([[0, 1.0], [1.0, 0]], dtype=object),
        ],
    )
    def test_array_dtype_must_be_integer_or_float(self, weights):
        with pytest.raises(TypeError, match="weight must be a number, got dtype"):
            build_digraph(weights)

    @pytest.mark.parametrize(
        "weights",
        [
            [[0, 2], [3.0, 0]],
            [[0, np.int64(2)], [np.float32(3.0), 0]],
            [np.array([0, 2]), np.array([3.0, 0])],
            np.array([[0, 2], [3, 0]], dtype=np.uint8),
            np.array([[0, 2], [3.0, 0]], dtype=np.float32),
        ],
    )
    def test_numbers_of_every_kind_are_read(self, weights):
        assert build_digraph(weights).weights.tolist() == [[0.0, 2.0], [3.0, 0.0]]

    def test_a_flat_list_is_still_a_shape_error(self):
        with pytest.raises(NonSquareError):
            build_digraph([0.0, 1.0])


class TestRowStats:
    def test_irregular_row_sum(self):
        alpha, a_bar = row_stats(build_digraph(IRREGULAR_5))
        assert alpha[1] == pytest.approx(4.6 + 1.3 + 6.5)
        assert a_bar == pytest.approx(12.4)

    def test_zero_matrix(self):
        alpha, a_bar = row_stats(build_digraph(np.zeros((3, 3))))
        assert np.all(alpha == 0) and a_bar == 0

    def test_complete_graph(self):
        alpha, a_bar = row_stats(build_digraph(complete(5)))
        assert np.all(alpha == 4) and a_bar == 4

    def test_alpha_dominates_single_weights(self):
        g = build_digraph(IRREGULAR_5)
        alpha, _ = row_stats(g)
        assert np.all(alpha[:, None] >= g.weights - 1e-15)

    def test_laplacian_rows_sum_to_zero(self):
        L = build_digraph(IRREGULAR_5).laplacian()
        assert np.abs(L.sum(axis=1)).max() < 1e-12


def former_edges(w):
    """``Digraph.edges`` as it read the matrix, kept as the oracle."""
    receivers, senders = np.nonzero(w)
    return list(zip(senders.tolist(), receivers.tolist()))


def assert_graph_of(g, matrix):
    """``g`` stores the validated ``matrix`` as its edge columns."""
    # a zero entry is no edge, so a -0.0 reads back as 0.0
    w = np.array(matrix, dtype=np.float64) + 0.0
    receivers, senders = np.nonzero(w)
    assert g.n == len(w)
    assert g.senders.tolist() == senders.tolist()
    assert g.receivers.tolist() == receivers.tolist()
    assert g.weight.tobytes() == w[receivers, senders].tobytes()
    assert "weights" not in g.__dict__  # built on first read only
    assert g.weights.tobytes() == w.tobytes() and not g.weights.flags.writeable
    assert g.edges() == former_edges(w)
    alpha, a_bar = row_stats(g)
    dense = w.sum(axis=1)
    assert alpha.dtype == dense.dtype
    if len(w) < 8:  # the dense sum adds in sender order too
        assert alpha.tobytes() == dense.tobytes()
    else:  # the dense sum is pairwise: within one rounding per edge
        deg = np.count_nonzero(w, axis=1)
        assert (np.abs(alpha - dense) <= deg * np.finfo(float).eps * alpha).all()
    assert a_bar == (alpha.max() if len(w) else 0.0)


def square_matrices(max_n=7):
    """Valid weight matrices: zero diagonal, entries 0, -0.0 or positive."""
    entries = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e6, allow_subnormal=True)
    return st.integers(0, max_n).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=entries).map(
            lambda w: w * (1 - np.eye(len(w)))
        )
    )


class TestDigraphIsItsEdges:
    @given(square_matrices())
    @settings(max_examples=300, deadline=None)
    def test_columns_match_the_matrix(self, w):
        assert_graph_of(build_digraph(w), w)

    @pytest.mark.parametrize("n", [50, 200])
    def test_netgen_networks(self, n):
        w = load_netgen().wide_network(1, n)["weights"]
        assert_graph_of(build_digraph(w), w)


def _reachability_oracle(adj):
    """Transitive closure by repeated boolean matrix products."""
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    return reach


def dfs_strongly_connected(g):
    """The former per-vertex double DFS, kept as the oracle."""
    n = g.n
    if n <= 1:
        return True
    adj = g.weights > 0  # adj[i, j]: edge j -> i

    def reaches_all(out_edges):
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for w in np.flatnonzero(out_edges[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        return bool(seen.all())

    return reaches_all(adj.T) and reaches_all(adj)


def one_way_chain(n):
    w = np.zeros((n, n))
    for i in range(1, n):
        w[i, i - 1] = 1.0  # edge i-1 -> i
    return w


def two_components(n):
    """Two complete halves joined by one edge from the first to the second."""
    h = n // 2
    w = np.zeros((n, n))
    w[:h, :h] = 1.0
    w[h:, h:] = 1.0
    np.fill_diagonal(w, 0.0)
    w[h, 0] = 1.0
    return w


class TestStrongConnectivity:
    @pytest.mark.parametrize("density", [0.02, 0.08, 0.3, 0.9])
    def test_matches_dfs_oracle_on_random_digraphs(self, density):
        rng = np.random.default_rng(int(density * 100))
        for n in range(1, 61):
            w = (rng.random((n, n)) < density).astype(float)
            np.fill_diagonal(w, 0.0)
            g = build_digraph(w)
            assert is_strongly_connected(g) == dfs_strongly_connected(g), n

    @pytest.mark.parametrize("n", [2, 3, 17, 60])
    def test_matches_dfs_oracle_on_chains_and_components(self, n):
        ring = one_way_chain(n)
        ring[0, n - 1] = 1.0
        for w, expected in (
            (one_way_chain(n), False),
            (ring, True),
            (two_components(n), False),
        ):
            g = build_digraph(w)
            assert is_strongly_connected(g) == dfs_strongly_connected(g) == expected

    @pytest.mark.parametrize("closed", [True, False])
    def test_matches_dfs_oracle_on_a_2000_agent_ring(self, closed):
        w = one_way_chain(2000)
        w[0, -1] = float(closed)  # edge 1999 -> 0 closes the ring
        g = build_digraph(w)
        assert is_strongly_connected(g) == dfs_strongly_connected(g) == closed

    def test_complete_graph(self):
        assert is_strongly_connected(build_digraph(complete(5)))

    def test_one_way_link(self):
        assert not is_strongly_connected(build_digraph([[0, 1], [0, 0]]))

    def test_irregular_matrix(self):
        assert is_strongly_connected(build_digraph(IRREGULAR_5))

    def test_single_agent(self):
        assert is_strongly_connected(build_digraph(np.zeros((1, 1))))

    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.lists(
                st.lists(st.booleans(), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_transitive_closure_oracle(self, rows):
        n = len(rows)
        mask = np.array(rows, dtype=bool)
        np.fill_diagonal(mask, False)
        g = build_digraph(mask.astype(float))
        # adj[i, j] means edge j -> i; successor matrix is the transpose
        closure = _reachability_oracle(mask.T)
        assert is_strongly_connected(g) == bool(closure.all())

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_positive_rescaling(self, c):
        base = np.array(IRREGULAR_5)
        assert is_strongly_connected(build_digraph(base * c))

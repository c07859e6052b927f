"""Directed weighted interaction networks.

Edge convention: ``weights[i, j] > 0`` means agent ``j`` transmits to agent
``i`` (directed edge ``j -> i``). All other modules inherit this convention.

A graph is stored as its edges, and only this module knows how: ``n`` plus
``senders``, ``receivers`` and ``weight`` columns in receiver-major order,
the order ``np.nonzero`` reads a weight matrix in. A graph of ``E`` edges
costs ``O(n + E)``; the dense matrix is a read-only view, built when first
read, for the API, :meth:`Digraph.laplacian` and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from numpy.typing import NDArray

from .errors import (
    NegativeWeightError,
    NonFiniteError,
    NonSquareError,
    NonzeroDiagonalError,
)


@dataclass(frozen=True, eq=False)
class Digraph:
    """Immutable weighted digraph over ``n`` agents: edge ``e`` runs from
    ``senders[e]`` to ``receivers[e]`` with weight ``weight[e] > 0``, the
    edges sorted by receiver and then sender, each pair once, no self-loop.
    Graphs compare and hash by identity, as their fields are arrays.

    Construct through :func:`build_digraph`, which validates a weight matrix
    (square, finite, non-negative, zero diagonal), or :meth:`from_edges`,
    which sorts columns that its caller has checked.
    """

    n: int
    senders: NDArray[np.intp]
    receivers: NDArray[np.intp]
    weight: NDArray[np.float64]

    @classmethod
    def from_edges(cls, n: int, senders, receivers, weight) -> Digraph:
        """The graph of ``n`` agents with the edges ``senders[e] ->
        receivers[e]`` of weight ``weight[e]``, in any order; trusted to be
        in range, positive, distinct and loop-free."""
        order = np.argsort(receivers * n + senders)
        return cls(n, senders[order], receivers[order], weight[order])

    def weights_of(self, senders, receivers) -> NDArray[np.float64] | None:
        """The weight of each pair ``senders[e] -> receivers[e]`` if the
        pairs are this graph's edges, each once, in any order, else ``None``:
        the pairs, sorted like the edges, must equal the edge columns."""
        order = np.argsort(receivers * self.n + senders)
        if np.array_equal((senders[order], receivers[order]), (self.senders, self.receivers)):
            return self.weight[np.argsort(order)]
        return None

    @cached_property
    def weights(self) -> NDArray[np.float64]:
        """The read-only ``n x n`` weight matrix, ``weights[i, j] = a_ij``;
        ``O(n**2)``, so nothing on a run's path reads it."""
        w = np.zeros((self.n, self.n))
        w[self.receivers, self.senders] = self.weight
        w.setflags(write=False)
        return w

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(j, i)`` pairs, ``j`` sender, ``i`` receiver, in
        receiver-major order."""
        return list(zip(self.senders.tolist(), self.receivers.tolist()))

    def laplacian(self) -> NDArray[np.float64]:
        alpha, _ = row_stats(self)
        return np.diag(alpha) - self.weights


INTEGER = (int, np.integer)
NUMBER = (int, float, np.integer, np.floating)


def check_numbers(values, what: str, kinds=NUMBER, error=TypeError) -> set[type]:
    """The type rule for numbers read from outside: raise ``error`` unless
    every entry of ``values`` is an instance of ``kinds``, never ``bool``
    (``np.array`` and ``float`` read ``True`` as 1.0, ``'1.5'`` as 1.5), and
    return the set of their types. One C-level pass collects the types; only
    a wrong one walks the values again, to name the first bad value."""
    found = set(map(type, values))
    if not all(k is not bool and issubclass(k, kinds) for k in found):
        kind = "an integer" if kinds is INTEGER else "a number"
        for value in values:
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise error(f"{what} must be {kind}, got {value!r}")
    return found


def as_float(value) -> float:
    """``float(value)`` for a number that passed :func:`check_numbers`; an
    integer beyond the float range reads as the infinity of its sign, so a
    finiteness check rejects it, naming the parameter, instead of letting
    ``OverflowError`` out."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def build_digraph(weights) -> Digraph:
    """Validate a weight matrix and return its :class:`Digraph`.

    Raises ``TypeError`` on a weight that is not a number (an array needs
    an integer or float dtype; see :func:`check_numbers`), and on a
    non-square matrix, negative or non-finite entries, or a nonzero
    diagonal (self-loops are an error, not silently repaired). The checked
    matrix is read once more, for its nonzero entries in row-major order,
    which is the graph's receiver-major edge order; it is not kept. A zero
    entry is no edge, so ``-0.0`` reads back as ``0.0`` from
    :attr:`Digraph.weights`.
    """
    if isinstance(weights, np.ndarray):
        if weights.dtype.kind not in "iuf":
            raise TypeError(f"weight must be a number, got dtype {weights.dtype}")
    else:
        try:
            entries = list(chain.from_iterable(weights))
        except TypeError:  # not a list of rows: the shape check reports it
            entries = []
        check_numbers(entries, "weight")
    w = np.array(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NonSquareError(f"weight matrix must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise NonFiniteError("weight matrix has non-finite entries")
    if np.any(w < 0):
        raise NegativeWeightError("weight matrix has negative entries")
    if np.any(np.diag(w) != 0):
        raise NonzeroDiagonalError("weight matrix has nonzero diagonal entries")
    # the entries are non-negative, and np.nonzero is several times faster
    # on a boolean array than on floats
    flat = np.flatnonzero(w > 0)
    return Digraph(len(w), flat % len(w), flat // len(w), w.ravel()[flat])


def row_stats(g: Digraph) -> tuple[NDArray[np.float64], float]:
    """In-degrees ``alpha_i = sum_j a_ij`` and their maximum.

    ``np.bincount`` adds each agent's in-edge weights to ``0.0`` in sender
    order. The dense row sum ``weights.sum(axis=1)`` adds in the same order
    below 8 agents, so there the two agree bit for bit; from 8 agents on it
    sums pairwise and may differ in the last ulp."""
    # without edges, np.bincount ignores the weights and counts in integers
    alpha = np.bincount(g.receivers, g.weight, minlength=g.n).astype(float, copy=False)
    return alpha, float(alpha.max(initial=0.0))


def is_strongly_connected(g: Digraph) -> bool:
    """Exact strong-connectivity test: agent 0 reaches every agent and every
    agent reaches agent 0.

    Each search expands a whole boolean frontier per step over the edge
    columns, so it costs one ``O(n + E)`` numpy pass per distance level
    rather than Python work per vertex. The forward search follows the
    edges from sender to receiver, the backward search from receiver to
    sender.
    """
    n = g.n
    if n <= 1:
        return True

    def reaches_all(tails, heads) -> bool:
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        front = seen.copy()
        while front.any():
            front = (np.bincount(heads[front[tails]], minlength=n) > 0) & ~seen
            seen |= front
        return bool(seen.all())

    return reaches_all(g.senders, g.receivers) and reaches_all(g.receivers, g.senders)

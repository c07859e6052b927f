"""Directed weighted interaction networks.

Edge convention: ``weights[i, j] > 0`` means agent ``j`` transmits to agent
``i`` (directed edge ``j -> i``). All other modules inherit this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.typing import NDArray

from .errors import (
    NegativeWeightError,
    NonFiniteError,
    NonSquareError,
    NonzeroDiagonalError,
)


@dataclass(frozen=True)
class Digraph:
    """Immutable weighted digraph over ``n`` agents.

    Construct through :func:`build_digraph`, which validates the invariants
    (square, finite, non-negative, zero diagonal).
    """

    weights: NDArray[np.float64]

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def neighbors(self, i: int) -> NDArray[np.intp]:
        """In-neighbors of agent ``i``: senders ``j`` with ``a_ij > 0``."""
        return np.flatnonzero(self.weights[i] > 0)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(j, i)`` pairs, ``j`` sender, ``i`` receiver."""
        receivers, senders = np.nonzero(self.weights)
        return list(zip(senders.tolist(), receivers.tolist()))

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
    """Validate a weight matrix and wrap it in a :class:`Digraph`.

    Raises ``TypeError`` on a weight that is not a number (an array needs
    an integer or float dtype; see :func:`check_numbers`), and on a
    non-square matrix, negative or non-finite entries, or a nonzero
    diagonal (self-loops are an error, not silently repaired).
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
    w.setflags(write=False)
    return Digraph(w)


def row_stats(g: Digraph) -> tuple[NDArray[np.float64], float]:
    """Row sums ``alpha_i`` and their maximum."""
    alpha = g.weights.sum(axis=1)
    a_bar = float(alpha.max()) if g.n else 0.0
    return alpha, a_bar


def is_strongly_connected(g: Digraph) -> bool:
    """Exact strong-connectivity test: agent 0 reaches every agent and every
    agent reaches agent 0.

    Each search expands a whole boolean frontier per step, so it costs one
    numpy pass per distance level rather than Python work per vertex. With
    the ``j -> i`` convention, ``adj[:, front]`` holds the edges leaving the
    frontier, so the forward search runs on ``adj`` and the backward search
    on ``adj.T``.
    """
    n = g.n
    if n <= 1:
        return True
    adj = g.weights > 0  # adj[i, j]: edge j -> i

    def reaches_all(succ) -> bool:
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        front = seen.copy()
        while front.any():
            front = succ[:, front].any(axis=1) & ~seen
            seen |= front
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)

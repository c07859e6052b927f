"""Directed weighted interaction networks.

Edge convention: ``weights[i, j] > 0`` means agent ``j`` transmits to agent
``i`` (directed edge ``j -> i``). All other modules inherit this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


_NUMBER = (int, float, np.integer, np.floating)


def _check_numbers(weights) -> None:
    """Raise ``TypeError`` unless every weight is a number, ``bool`` not
    included: ``np.array`` would read ``True`` as 1.0, ``'1.5'`` as 1.5 and
    ``None`` as NaN. An array must have an integer or float dtype; the
    entries of a list of rows are checked in one C-level pass over their
    types, and walked again only to name the first bad one."""
    if isinstance(weights, np.ndarray):
        if weights.dtype.kind not in "iuf":
            raise TypeError(f"weight must be a number, got dtype {weights.dtype}")
        return
    try:
        found = set(map(type, chain.from_iterable(weights)))
    except TypeError:  # not a list of rows: the shape check reports it
        return
    if not all(k is not bool and issubclass(k, _NUMBER) for k in found):
        for value in chain.from_iterable(weights):
            if isinstance(value, bool) or not isinstance(value, _NUMBER):
                raise TypeError(f"weight must be a number, got {value!r}")


def build_digraph(weights) -> Digraph:
    """Validate a weight matrix and wrap it in a :class:`Digraph`.

    Raises ``TypeError`` on a weight that is not a number (see
    :func:`_check_numbers`), and on a non-square matrix, negative or
    non-finite entries, or a nonzero diagonal (self-loops are an error,
    not silently repaired).
    """
    _check_numbers(weights)
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

"""Node proximity measures and per-predicate temporal signature series.

Neighborhoods are taken over the undirected view of a graph slice: an edge
``(s, -, o)`` makes ``o`` a neighbor of ``s`` and vice versa.  A signature
series stacks, per timestamp, the proximity scores of the entity pairs a
predicate connects at that timestamp, giving one row per timestamp and one
column per pair the predicate ever connects.  Change points in that matrix
are where the predicate's neighborhood structure shifts.  Facts are
expanded to their stamps with ``graph.expand_ranges``, and each stamp's
edges keep fact order (``graph.group_rows`` is stable), because the order
edges enter a neighborhood set fixes the order ``adamic_adar`` adds in.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .graph import expand_ranges, group_rows

PROXIMITY_MEASURES = ("jaccard", "adar", "pref")
SIGNATURE_SCOPES = ("predicate", "graph")


class NeighborIndex:
    """Undirected adjacency over a set of (s, o) edges.

    Self-loops contribute the node to its own neighborhood once; parallel
    edges collapse (neighborhoods are sets).
    """

    def __init__(self, edges: Iterable[tuple[int, int]]):
        adj: dict[int, set[int]] = {}
        for s, o in edges:
            adj.setdefault(s, set()).add(o)
            adj.setdefault(o, set()).add(s)
        self._adj = adj

    def neighbors(self, v: int) -> set[int]:
        return self._adj.get(v, set())

    def degree(self, v: int) -> int:
        return len(self._adj.get(v, ()))


def jaccard(index: NeighborIndex, u: int, v: int) -> float:
    """|N(u) & N(v)| / |N(u) | N(v)|, zero when the union is empty."""
    nu, nv = index.neighbors(u), index.neighbors(v)
    union = len(nu | nv)
    if union == 0:
        return 0.0
    return len(nu & nv) / union


def adamic_adar(index: NeighborIndex, u: int, v: int) -> float:
    """Sum of 1/ln(deg(z)) over common neighbors z with degree > 1.

    Degree-one common neighbors would divide by ln(1) = 0 and are skipped.
    """
    total = 0.0
    for z in index.neighbors(u) & index.neighbors(v):
        dz = index.degree(z)
        if dz > 1:
            total += 1.0 / math.log(dz)
    return total


def can_share_neighbors(edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the endpoints of some edge have a common neighbor.

    True when the undirected edge set holds a triangle or a self-loop, which
    puts a node in its own neighborhood.  When False, no edge's endpoints
    share a neighbor in any subgraph of ``edges`` either, and ``jaccard`` and
    ``adamic_adar`` score every such pair 0.
    """
    edges = set(edges)
    index = NeighborIndex(edges)
    return any(not index.neighbors(s).isdisjoint(index.neighbors(o)) for s, o in edges)


def pref_attachment(index: NeighborIndex, u: int, v: int) -> float:
    """deg(u) * deg(v)."""
    return float(index.degree(u) * index.degree(v))


_MEASURES: dict[str, Callable[[NeighborIndex, int, int], float]] = {
    "jaccard": jaccard,
    "adar": adamic_adar,
    "pref": pref_attachment,
}


def get_measure(name: str) -> Callable[[NeighborIndex, int, int], float]:
    try:
        return _MEASURES[name]
    except KeyError:
        raise ValueError(
            f"unknown proximity measure {name!r}; expected one of {PROXIMITY_MEASURES}"
        ) from None


class SignatureSeries:
    """Per-timestamp proximity scores for the pairs a predicate connects.

    ``matrix`` has shape (num timestamps in the graph, num distinct pairs);
    ``pairs[j]`` is the canonical (min, max) entity pair of column ``j``.
    Column order is fixed by sorted pair order, so identical inputs always
    produce identical matrices.  A cell is zero whenever its pair is not
    connected by the predicate at that row's timestamp.
    """

    def __init__(self, matrix: np.ndarray, pairs: list[tuple[int, int]]):
        self.matrix = matrix
        self.pairs = pairs


def neighbor_slices(facts: np.ndarray, num_timestamps: int) -> list[NeighborIndex]:
    """One NeighborIndex per timestamp over the fact rows valid then, each
    built from their (s, o) edges in fact order."""
    which, t = expand_ranges(facts[:, 3], facts[:, 4])
    edges = group_rows(facts[:, [0, 2]][which], t, range(num_timestamps))
    return [NeighborIndex(block.tolist()) for block in edges]


def signature_series(
    rows: np.ndarray,
    num_timestamps: int,
    measure: str = "pref",
    slices: list[NeighborIndex] | None = None,
) -> SignatureSeries:
    """Build the proximity signature of one predicate across all timestamps.

    ``rows`` are the predicate's own fact rows ``(s, p, o, b, e)``, in fact
    order.  ``slices`` holds the neighborhood index of each timestamp; the
    graph scope passes ``neighbor_slices(g.facts, g.num_timestamps)``, which
    callers scoring many predicates build once.  Without it the rows' own
    edges define the neighborhoods (the predicate scope).  Scores are
    written only for pairs connected at the row's timestamp; other cells
    stay zero.
    """
    if slices is not None and len(slices) != num_timestamps:
        raise ValueError(f"{len(slices)} neighborhood slices for {num_timestamps} timestamps")
    score = get_measure(measure)
    if not len(rows):
        return SignatureSeries(np.zeros((num_timestamps, 0)), [])

    # each pair packed into one key, min * width + max, whose sorted order is
    # the pairs' sorted order; column j holds the j-th distinct key
    lo = np.minimum(rows[:, 0], rows[:, 2])
    hi = np.maximum(rows[:, 0], rows[:, 2])
    width = int(hi.max()) + 1
    keys, column = np.unique(lo * width + hi, return_inverse=True)
    lo, hi = np.divmod(keys, width)
    n_pairs = len(keys)

    # the (timestamp, column) cells some fact connects, once each
    which, t = expand_ranges(rows[:, 3], rows[:, 4])
    t, j = np.divmod(np.unique(t * n_pairs + column[which]), n_pairs)

    if slices is None:
        slices = neighbor_slices(rows, num_timestamps)
    matrix = np.zeros((num_timestamps, n_pairs), dtype=np.float64)
    matrix[t, j] = [score(slices[k], u, v)
                    for k, u, v in zip(t.tolist(), lo[j].tolist(), hi[j].tolist())]
    return SignatureSeries(matrix, list(zip(lo.tolist(), hi.tolist())))

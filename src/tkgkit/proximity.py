"""Node proximity measures and per-predicate temporal signature series.

Neighborhoods are taken over the undirected view of a graph slice: an edge
``(s, -, o)`` makes ``o`` a neighbor of ``s`` and vice versa.  A signature
series stacks, per timestamp, the proximity scores of the entity pairs a
predicate connects at that timestamp, giving one row per timestamp and one
column per pair the predicate ever connects.  Change points in that matrix
are where the predicate's neighborhood structure shifts.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

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
    ``pairs[j]`` is the canonical (min, max) entity pair of column ``j`` and
    ``pair_index`` the inverse map.  Column order is fixed by sorted pair
    order, so identical inputs always produce identical matrices.  A cell is
    zero whenever its pair is not connected by the predicate at that row's
    timestamp.
    """

    def __init__(self, matrix: np.ndarray, pairs: list[tuple[int, int]]):
        self.matrix = matrix
        self.pairs = pairs
        self.pair_index = {pq: j for j, pq in enumerate(pairs)}

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def neighbor_slices(facts: np.ndarray, num_timestamps: int) -> list[NeighborIndex]:
    """One NeighborIndex per timestamp over the fact rows valid then, each
    built from their (s, o) edges in fact order."""
    edges: list[list[tuple[int, int]]] = [[] for _ in range(num_timestamps)]
    for s, _, o, b, e in facts.tolist():
        for t in range(b, e + 1):
            edges[t].append((s, o))
    return [NeighborIndex(e) for e in edges]


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

    facts = rows.tolist()
    pairs = sorted({(min(s, o), max(s, o)) for s, _, o, _, _ in facts})

    n_t = num_timestamps
    matrix = np.zeros((n_t, len(pairs)), dtype=np.float64)
    series = SignatureSeries(matrix, pairs)
    if not pairs:
        return series

    # bucket facts into every slice they span
    active: list[set[tuple[int, int]]] = [set() for _ in range(n_t)]
    for s, _, o, b, e in facts:
        pq = (min(s, o), max(s, o))
        for t in range(b, e + 1):
            active[t].add(pq)

    if slices is None:
        slices = neighbor_slices(rows, n_t)

    col = series.pair_index
    for t in range(n_t):
        row = matrix[t]
        for u, v in active[t]:
            row[col[(u, v)]] = score(slices[t], u, v)
    return series

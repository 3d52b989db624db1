"""Node proximity measures and per-predicate temporal signature series.

Neighborhoods are taken over the undirected view of a graph slice: an edge
``(s, -, o)`` makes ``o`` a neighbor of ``s`` and vice versa.  A signature
series stacks, per timestamp, the proximity scores of the entity pairs a
predicate connects at that timestamp, giving one row per timestamp and one
column per pair the predicate ever connects.  Change points in that matrix
are where the predicate's neighborhood structure shifts.  Facts are
expanded to their stamps with ``graph.expand_ranges``.

``pref`` reads per-stamp degree arrays (:class:`StampDegrees`): its score is
an integer product, so arrays give the same bits as sets, with no Python
loop over stamps or cells.  ``adar`` and ``jaccard`` read one
:class:`NeighborIndex` of Python sets per stamp.  Each stamp's edges keep
fact order there (``graph.group_rows`` is stable), because the order edges
enter a neighborhood set fixes the order ``adamic_adar`` adds in, and an
array sum in id order can differ in the last bit.
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


def _check_packable(*widths: int) -> None:
    """Raise unless keys packed from values below ``widths`` fit an int64."""
    if math.prod(widths) >= 2**63:
        raise ValueError("entity ids too large to pack into one int64")


def neighbor_slices(facts: np.ndarray, num_timestamps: int) -> list[NeighborIndex]:
    """One NeighborIndex per timestamp over the fact rows valid then, each
    built from their (s, o) edges in fact order."""
    which, t = expand_ranges(facts[:, 3], facts[:, 4])
    edges = group_rows(facts[:, [0, 2]][which], t, range(num_timestamps))
    return [NeighborIndex(block.tolist()) for block in edges]


class StampDegrees:
    """Each node's degree at each timestamp over the fact rows valid then,
    counted as ``NeighborIndex.degree`` counts it: distinct undirected
    neighbors, so a self-loop counts once and parallel edges collapse.

    Only the (stamp, node) entries with an edge are kept, as sorted keys
    ``stamp * width + node``; no dense stamps x entities table is built.
    ``len()`` is the number of timestamps, as for ``neighbor_slices``.
    """

    def __init__(self, facts: np.ndarray, num_timestamps: int):
        which, t = expand_ranges(facts[:, 3], facts[:, 4])
        lo = np.minimum(facts[:, 0], facts[:, 2])[which]
        hi = np.maximum(facts[:, 0], facts[:, 2])[which]
        width = int(hi.max(initial=0)) + 1
        _check_packable(num_timestamps, width, width)
        # the distinct undirected edges (t, lo, hi), as the keys of their ends
        # node = t * width + lo and other = t * width + hi; each adds one to
        # the degree of both ends, a self-loop one to its node's
        node, hi = np.divmod(np.unique((t * width + lo) * width + hi), width)
        other = node - node % width + hi
        keys, counts = np.unique(np.concatenate([node, other[other != node]]),
                                 return_counts=True)
        # a last key above every lookup, of degree 0, so a miss finds a key
        self._keys = np.append(keys, np.iinfo(np.int64).max)
        self._counts = np.append(counts, 0)
        self._width = width
        self._num_timestamps = num_timestamps

    def __len__(self) -> int:
        return self._num_timestamps

    def degree(self, t: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The degree of each node ``v[i]`` at timestamp ``t[i]``."""
        # a node above every id seen has no edge; its key would alias another's
        key = np.where(v < self._width, t * self._width + v, -1)
        i = np.searchsorted(self._keys, key)
        return np.where(self._keys[i] == key, self._counts[i], 0)


def stamp_neighborhoods(
    facts: np.ndarray, num_timestamps: int, measure: str
) -> StampDegrees | list[NeighborIndex]:
    """What ``signature_series`` reads at each timestamp to score
    ``measure`` over ``facts``: degree arrays for ``pref``, neighbor sets
    for ``adar`` and ``jaccard``."""
    if measure == "pref":
        return StampDegrees(facts, num_timestamps)
    return neighbor_slices(facts, num_timestamps)


def signature_series(
    rows: np.ndarray,
    num_timestamps: int,
    measure: str = "pref",
    slices: StampDegrees | list[NeighborIndex] | None = None,
) -> SignatureSeries:
    """Build the proximity signature of one predicate across all timestamps.

    ``rows`` are the predicate's own fact rows ``(s, p, o, b, e)``, in fact
    order.  ``slices`` holds the neighborhoods of each timestamp; the graph
    scope passes ``stamp_neighborhoods(g.facts, g.num_timestamps, measure)``,
    which callers scoring many predicates build once.  A per-stamp list of
    ``NeighborIndex`` scores any measure with its set-based function.
    Without ``slices`` the rows' own edges define the neighborhoods (the
    predicate scope).  Scores are written only for pairs connected at the
    row's timestamp; other cells stay zero.
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
    _check_packable(width, width)
    keys, column = np.unique(lo * width + hi, return_inverse=True)
    lo, hi = np.divmod(keys, width)
    n_pairs = len(keys)

    # the (timestamp, column) cells some fact connects, once each
    which, t = expand_ranges(rows[:, 3], rows[:, 4])
    t, j = np.divmod(np.unique(t * n_pairs + column[which]), n_pairs)

    if slices is None:
        slices = stamp_neighborhoods(rows, num_timestamps, measure)
    matrix = np.zeros((num_timestamps, n_pairs), dtype=np.float64)
    if isinstance(slices, StampDegrees):
        # an int64 product, cast once to float64: pref_attachment's bits
        matrix[t, j] = slices.degree(t, lo[j]) * slices.degree(t, hi[j])
    else:
        matrix[t, j] = [score(slices[k], u, v)
                        for k, u, v in zip(t.tolist(), lo[j].tolist(), hi[j].tolist())]
    return SignatureSeries(matrix, list(zip(lo.tolist(), hi.tolist())))

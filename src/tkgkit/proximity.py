"""Node proximity measures and per-predicate temporal signature series.

Neighborhoods are taken over the undirected view of a graph slice: an edge
``(s, -, o)`` makes ``o`` a neighbor of ``s`` and vice versa.  A signature
series stacks, per timestamp, the proximity scores of the entity pairs a
predicate connects at that timestamp, giving one row per timestamp and one
column per pair the predicate ever connects.  Change points in that matrix
are where the predicate's neighborhood structure shifts.  Two primitives
of ``graph`` do the array work: ``expand_ranges`` lists each fact at each
stamp, and ``distinct_keys`` drops repeated packed (stamp, pair) keys.

Every measure reads one structure, the per-stamp neighbor arrays of
:class:`StampNeighbors`.  Adamic-Adar adds a pair's terms in increasing
neighbor id, so a score does not depend on the order of the fact rows.
"""
from __future__ import annotations

import math

import numpy as np

from .graph import distinct_keys, expand_ranges

PROXIMITY_MEASURES = ("jaccard", "adar", "pref")
SIGNATURE_SCOPES = ("predicate", "graph")
# the measures that score 0 a pair whose ends share no neighbor
ZERO_UNLESS_SHARED = ("jaccard", "adar")


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


class StampNeighbors:
    """Each node's distinct neighbors at each timestamp over the fact rows
    valid then, in arrays: the neighbors of node ``v`` at stamp ``t`` are one
    run of the sorted keys ``(t * width + v) * width + neighbor``, found from
    the run starts of the (stamp, node) entries with an edge.  A self-loop
    makes a node its own neighbor.  ``len()`` is the number of timestamps.
    """

    def __init__(self, facts: np.ndarray, num_timestamps: int):
        which, t = expand_ranges(facts[:, 3], facts[:, 4])
        ends = facts[:, [0, 2]][which]
        width = int(ends.max(initial=0)) + 1
        _check_packable(num_timestamps, width, width)
        # every edge from both ends, once each; a self-loop's two are one
        s, o = ends.T
        pairs = distinct_keys(np.append((t * width + s) * width + o, (t * width + o) * width + s))
        node = pairs // width
        runs = np.flatnonzero(np.diff(node, prepend=-1))
        # a last key above every lookup, whose run is empty, so a miss finds
        # a key; the neighbor keys end in one too, for shared's lookups
        self._keys = np.append(node[runs], np.iinfo(np.int64).max)
        self._starts = np.append(runs, [len(pairs), len(pairs)])
        self._pairs = np.append(pairs, np.iinfo(np.int64).max)
        self._width = width
        self._num_timestamps = num_timestamps

    def __len__(self) -> int:
        return self._num_timestamps

    def _runs(self, t: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the neighbor run of node ``v[i]`` at stamp ``t[i]`` starts, and its length."""
        # a node above every id seen has no edge; its key would alias another's
        key = np.where(v < self._width, t * self._width + v, -1)
        i = np.searchsorted(self._keys, key)
        start = self._starts[i]
        return start, np.where(self._keys[i] == key, self._starts[i + 1] - start, 0)

    def degree(self, t: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The degree of each node ``v[i]`` at timestamp ``t[i]``."""
        return self._runs(t, v)[1]

    def shared(self, t: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """The neighbors that nodes ``u[i]`` and ``v[i]`` share at stamp
        ``t[i]``: each one's ``i`` and id, by ``i`` and then by id."""
        (su, du), (sv, dv) = self._runs(t, u), self._runs(t, v)
        # each neighbor of the lower-degree end, looked up among the other's
        swap = dv < du
        start, other = np.where(swap, sv, su), np.where(swap, u, v)
        cell, at = expand_ranges(start, start + np.minimum(du, dv) - 1)
        w = self._width
        z = self._pairs[at] % w
        key = (t[cell] * w + other[cell]) * w + z
        found = self._pairs[np.searchsorted(self._pairs, key)] == key
        return cell[found], z[found]

    def common(self, t: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """How many neighbors nodes ``u[i]`` and ``v[i]`` share at stamp ``t[i]``."""
        return np.bincount(self.shared(t, u, v)[0], minlength=len(t))

    def adar(self, t: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The Adamic-Adar score of each pair ``u[i]``, ``v[i]`` at stamp
        ``t[i]``: the sum of 1/ln(degree) over their shared neighbors of
        degree above one (ln 1 = 0), added in increasing neighbor id."""
        cell, z = self.shared(t, u, v)
        deg = self.degree(t[cell], z)
        cell, deg = cell[deg > 1], deg[deg > 1]
        top = int(deg.max(initial=1))
        inverse_log = np.array([0.0, 0.0] + [1.0 / math.log(d) for d in range(2, top + 1)])
        # shared lists each cell's terms by id, and bincount adds them in turn
        return np.bincount(cell, weights=inverse_log[deg], minlength=len(t))


def signature_series(
    rows: np.ndarray,
    num_timestamps: int,
    measure: str = "pref",
    slices: StampNeighbors | None = None,
) -> SignatureSeries:
    """Build the proximity signature of one predicate across all timestamps.

    ``rows`` are the predicate's own fact rows ``(s, p, o, b, e)``, in fact
    order.  ``slices`` holds the neighborhoods of each timestamp, the
    :class:`StampNeighbors` of some facts; the graph scope passes those of
    every fact, which callers scoring many predicates build once.  Without
    ``slices`` the rows' own edges define the neighborhoods (the predicate
    scope).  Scores are written only for
    pairs connected at the row's timestamp; other cells stay zero.
    """
    if measure not in PROXIMITY_MEASURES:
        raise ValueError(f"unknown proximity measure {measure!r}")
    if slices is not None and len(slices) != num_timestamps:
        raise ValueError(f"{len(slices)} neighborhood slices for {num_timestamps} timestamps")
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
    t, j = np.divmod(distinct_keys(t * n_pairs + column[which]), n_pairs)
    u, v = lo[j], hi[j]

    if slices is None:
        slices = StampNeighbors(rows, num_timestamps)
    matrix = np.zeros((num_timestamps, n_pairs), dtype=np.float64)
    if measure == "adar":
        matrix[t, j] = slices.adar(t, u, v)
    elif measure == "pref":
        # an int64 product, cast once to float64: deg(u) * deg(v) in floats
        matrix[t, j] = slices.degree(t, u) * slices.degree(t, v)
    else:
        # |N(u) & N(v)| / |N(u) | N(v)| as one division of exact integers,
        # correctly rounded as Python's is; a pair with no neighbor scores 0
        shared = slices.common(t, u, v)
        union = slices.degree(t, u) + slices.degree(t, v) - shared
        matrix[t, j] = shared / np.maximum(union, 1)
    return SignatureSeries(matrix, list(zip(lo.tolist(), hi.tolist())))

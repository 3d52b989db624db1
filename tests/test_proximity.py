"""Proximity measures and signature series against brute-force oracles."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tkgkit import signature_series, split_cpd, transform
from tkgkit.proximity import (
    PROXIMITY_MEASURES,
    SIGNATURE_SCOPES,
    ZERO_UNLESS_SHARED,
    StampNeighbors,
)

from conftest import SET_MEASURES, NeighborIndex, adamic_adar, build_graph, reference_signature


def star_index():
    # 0 is hub of 1,2,3; 4-5 isolated pair
    return NeighborIndex([(0, 1), (0, 2), (0, 3), (4, 5)])


def test_neighbor_index_undirected():
    idx = star_index()
    assert idx.neighbors(0) == {1, 2, 3}
    assert idx.neighbors(1) == {0}
    assert idx.degree(0) == 3
    assert idx.degree(9) == 0


def test_neighbor_index_parallel_edges_collapse():
    idx = NeighborIndex([(0, 1), (0, 1), (1, 0)])
    assert idx.degree(0) == 1


def test_neighbor_index_self_loop():
    idx = NeighborIndex([(2, 2)])
    assert idx.neighbors(2) == {2}


def _scores(edges, pairs, measure):
    """The signature cells of ``pairs`` at one stamp whose neighborhoods
    are those of ``edges``."""
    facts = np.array([(s, 0, o, 0, 0) for s, o in edges])
    rows = np.array([(u, 0, v, 0, 0) for u, v in pairs])
    slices = StampNeighbors(facts, 1)
    return signature_series(rows, 1, measure=measure, slices=slices).matrix[0].tolist()


def test_jaccard_values():
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)]
    # N(0) = {2,3}, N(1) = {2,3,4}; 8 and 9 have no edge: an empty union
    assert _scores(edges, [(0, 0), (0, 1), (8, 9)], "jaccard") == [1.0, 2 / 3, 0.0]


def test_adamic_adar_values():
    idx = NeighborIndex([(0, 2), (0, 3), (1, 2), (1, 3), (2, 4)])
    # commons of 0,1: {2,3}; deg(2)=3, deg(3)=2
    want = 1 / math.log(3) + 1 / math.log(2)
    assert adamic_adar(idx, 0, 1) == pytest.approx(want)


def test_adamic_adar_skips_degree_one():
    idx = NeighborIndex([(0, 1)])
    # 1 is a degree-one common neighbor of the pair (0, 0)
    assert adamic_adar(idx, 0, 0) == 0.0


def test_pref_attachment():
    star = [(0, 1), (0, 2), (0, 3), (4, 5)]
    assert _scores(star, [(0, 1), (0, 9)], "pref") == [3.0, 0.0]


@settings(max_examples=50, deadline=None)
@given(
    edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20),
    u=st.integers(0, 7),
    v=st.integers(0, 7),
)
def test_measures_symmetric(edges, u, v):
    idx = NeighborIndex(edges)
    assert adamic_adar(idx, u, v) == pytest.approx(adamic_adar(idx, v, u))
    facts = np.array([(s, 0, o, 0, 0) for s, o in edges], dtype=np.int64).reshape(-1, 5)
    arrays = StampNeighbors(facts, 1)
    t, a, b = np.zeros(1, dtype=np.int64), np.array([u]), np.array([v])
    shared = len(idx.neighbors(u) & idx.neighbors(v))
    assert arrays.common(t, a, b).tolist() == arrays.common(t, b, a).tolist() == [shared]


def _signature_oracle(g, predicate, measure, scope):
    """Independent recomputation: per timestamp, build the neighborhood from
    scratch and score only the pairs the predicate connects right then."""
    score = SET_MEASURES[measure]
    facts = g.facts.tolist()
    mine = [f for f in facts if f[1] == predicate]
    pairs = sorted({(min(s, o), max(s, o)) for s, _, o, _, _ in mine})
    col = {pq: j for j, pq in enumerate(pairs)}
    mat = np.zeros((g.num_timestamps, len(pairs)))
    for t in range(g.num_timestamps):
        pool = mine if scope == "predicate" else facts
        idx = NeighborIndex([(s, o) for s, _, o, b, e in pool if b <= t <= e])
        for s, _, o, b, e in mine:
            if b <= t <= e:
                u, v = min(s, o), max(s, o)
                mat[t, col[(u, v)]] = score(idx, u, v)
    return pairs, mat


def _demo_graph():
    facts = [
        (0, 0, 1, 0, 2),
        (1, 0, 2, 1, 3),
        (2, 0, 0, 3, 3),
        (0, 1, 2, 0, 3),
        (3, 1, 1, 2, 2),
        (3, 0, 3, 2, 3),  # self-loop
    ]
    return build_graph(facts, num_times=4)


def _rows_of(g, pid):
    return g.facts[g.facts[:, 1] == pid]


def _signature(g, pid, measure="pref", scope="predicate"):
    """signature_series of predicate ``pid`` of ``g``, as split_cpd calls it
    for ``scope``."""
    slices = StampNeighbors(g.facts, g.num_timestamps) if scope == "graph" else None
    return signature_series(_rows_of(g, pid), g.num_timestamps, measure=measure, slices=slices)


@pytest.mark.parametrize("measure", PROXIMITY_MEASURES)
@pytest.mark.parametrize("scope", ["predicate", "graph"])
def test_signature_matches_oracle(measure, scope):
    g = _demo_graph()
    sig = _signature(g, 0, measure=measure, scope=scope)
    pairs, mat = _signature_oracle(g, 0, measure, scope)
    assert sig.pairs == pairs
    np.testing.assert_allclose(sig.matrix, mat)


def test_signature_zero_when_inactive():
    g = _demo_graph()
    sig = _signature(g, 0, measure="pref")
    j = sig.pairs.index((0, 1))
    assert sig.matrix[3, j] == 0.0  # (0,1) inactive at t=3
    assert sig.matrix[0, j] != 0.0


def test_signature_shape_and_order():
    g = _demo_graph()
    sig = _signature(g, 0)
    assert sig.matrix.shape == (4, len(sig.pairs))
    assert sig.pairs == sorted(sig.pairs)
    assert all(u <= v for u, v in sig.pairs)


def test_signature_scope_changes_scores():
    g = _demo_graph()
    a = _signature(g, 0, measure="pref", scope="predicate")
    b = _signature(g, 0, measure="pref", scope="graph")
    assert not np.allclose(a.matrix, b.matrix)


def test_signature_empty_predicate():
    g = build_graph([(0, 0, 1, 0, 1)], num_predicates=2, num_times=2)
    sig = _signature(g, 1)
    assert sig.matrix.shape == (2, 0)


def test_signature_rejects_bad_args():
    g = _demo_graph()
    rows, n_t = _rows_of(g, 0), g.num_timestamps
    with pytest.raises(ValueError, match="unknown proximity measure 'simrank'"):
        signature_series(rows, n_t, measure="simrank")
    for wrong_t in (3, 5):
        for measure in PROXIMITY_MEASURES:
            with pytest.raises(ValueError, match="slices"):
                signature_series(rows, n_t, measure=measure,
                                 slices=StampNeighbors(g.facts, wrong_t))


def test_signature_rejects_ids_too_large_to_pack():
    # min * width + max with width = 2**32 + 1 would wrap around int64
    rows = np.array([(2**31 + 5, 0, 2**32, 0, 0), (3, 0, 2**32 - 7, 0, 1)])
    for measure in PROXIMITY_MEASURES:
        with pytest.raises(ValueError, match="too large"):
            signature_series(rows, 2, measure=measure)
    with pytest.raises(ValueError, match="too large"):
        StampNeighbors(rows, 2)
    # (t, node, neighbor) keys: 2**21 stamps x (2**21)**2 ids passes 2**63
    rows = np.array([(0, 0, 2**21 - 1, 0, 0)])
    assert signature_series(rows, 1).pairs == [(0, 2**21 - 1)]
    with pytest.raises(ValueError, match="too large"):
        StampNeighbors(rows, 2**21)


# (s, p, o, begin, length): six entities make self-loops and repeated
# (parallel) edges likely; intervals cover up to four stamps of eight.  The
# ids share one hash slot, so a neighbour set's iteration order depends on
# the order its edges were added, and a sum in that order would too.
ENTITY = st.sampled_from([0, 8, 16, 24, 32, 40])
quintuples = st.lists(
    st.tuples(ENTITY, st.integers(0, 2), ENTITY, st.integers(0, 7), st.integers(0, 3)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(rows=quintuples)
# every run covers a self-loop, a parallel edge and multi-stamp intervals,
# and a triangle whose Adamic-Adar sum in set order changes with the edge order
@example(rows=[(0, 0, 0, 0, 3), (0, 0, 8, 1, 3), (0, 0, 8, 1, 1), (8, 1, 16, 0, 5),
               (16, 1, 16, 2, 0), (8, 0, 0, 3, 2), (16, 2, 24, 0, 1), (24, 2, 8, 4, 1)])
@example(rows=[(0, 0, 0, 0, 0), (0, 0, 8, 0, 0), (0, 0, 16, 0, 0), (8, 0, 16, 0, 0)])
# the pair (0, 8) shares 16; its lower-degree end is 8 at stamp 0 and 0 at
# stamp 1, so common looks up each end's neighbors among the other's
@example(rows=[(0, 0, 8, 0, 1), (0, 0, 24, 0, 0), (0, 0, 16, 0, 1), (8, 0, 16, 0, 1),
               (8, 0, 24, 1, 0), (8, 0, 32, 1, 0)])
# a self-loop pair, whose jaccard is 1.0, next to a pair sharing the loop's node
@example(rows=[(16, 0, 16, 0, 0), (16, 0, 8, 0, 0)])
def test_signature_bytes_match_reference(rows):
    facts = [(s, p, o, b, min(b + k, 7)) for s, p, o, b, k in rows]
    g = build_graph(facts, num_entities=41, num_predicates=3, num_times=8)
    for measure in PROXIMITY_MEASURES:
        shared = StampNeighbors(g.facts, g.num_timestamps)
        for pid in range(g.num_predicates):
            for scope in SIGNATURE_SCOPES:
                want = reference_signature(g, pid, measure, scope).tobytes()
                got = _signature(g, pid, measure=measure, scope=scope)
                assert got.matrix.tobytes() == want, (measure, pid, scope)
            got = signature_series(_rows_of(g, pid), g.num_timestamps, measure=measure,
                                   slices=shared)
            assert got.matrix.tobytes() == reference_signature(g, pid, measure, "graph").tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=quintuples)
@example(rows=[(0, 0, 0, 0, 3), (0, 0, 8, 1, 3), (8, 1, 0, 1, 1), (8, 2, 0, 2, 0)])
def test_stamp_neighbors_match_neighbor_index(rows):
    """The array degree of every (stamp, node) and the shared neighbors of
    every (stamp, pair) are NeighborIndex's: a self-loop counts once,
    parallel and reversed edges once."""
    facts = np.array([(s, p, o, b, min(b + k, 7)) for s, p, o, b, k in rows])
    n_t, nodes = 9, np.arange(42)  # stamp 8 and node 41 have no edge
    arrays = StampNeighbors(facts, n_t)
    assert len(arrays) == n_t
    ends = [0, 8, 16, 24, 32, 40, 41]  # every entity in use, and node 41
    u, v = np.array([(a, b) for a in ends for b in ends]).T
    for t in range(n_t):
        want = NeighborIndex([(s, o) for s, _, o, b, e in facts.tolist() if b <= t <= e])
        got = arrays.degree(np.full(len(nodes), t), nodes)
        assert got.tolist() == [want.degree(n) for n in nodes.tolist()], t
        got = arrays.common(np.full(len(u), t), u, v)
        assert got.tolist() == [len(want.neighbors(a) & want.neighbors(b))
                                for a, b in zip(u.tolist(), v.tolist())], t


def test_adar_adds_three_terms_in_id_order():
    """Pair (6, 7) shares 5, 7 and 8, whose terms 1/ln 2, 1/ln 4 and 1/ln 2
    sum to a different last bit in id order than in set order (8, 5, 7)."""
    edges = [(7, 8), (7, 6), (7, 7), (6, 5), (5, 7), (4, 4), (8, 6)]
    rows = np.array([(s, 0, o, 0, 0) for s, o in edges])
    want = adamic_adar(NeighborIndex(edges), 6, 7)
    sig = signature_series(rows, 1, measure="adar")
    assert sig.matrix[0, sig.pairs.index((6, 7))] == want
    got = StampNeighbors(rows, 1).adar(np.zeros(1, dtype=np.int64), np.array([6]), np.array([7]))
    assert got.tolist() == [want]


@settings(max_examples=60, deadline=None)
@given(rows=quintuples, order=st.randoms(use_true_random=False))
# at one stamp, pair (16, 32) shares 0, 8 and 24, whose ids share a hash
# slot: a sum in set order changes its last bit when these rows are reversed
@example(rows=[(24, 0, 24, 0, 0), (0, 0, 16, 0, 0), (32, 0, 24, 0, 0), (24, 0, 16, 0, 0),
               (24, 0, 16, 0, 0), (32, 0, 8, 0, 0), (32, 0, 8, 0, 0), (16, 0, 8, 0, 0),
               (0, 0, 32, 0, 0), (16, 0, 32, 0, 0)], order=random.Random(0))
def test_adar_ignores_fact_order(rows, order):
    """The Adamic-Adar signature of every predicate has the same bytes when
    the fact rows come reversed or shuffled, at both scopes; at the graph
    scope the neighbourhoods are built from the permuted rows."""
    facts = np.array([(s, p, o, b, min(b + k, 7)) for s, p, o, b, k in rows])
    shuffled = list(range(len(facts)))
    order.shuffle(shuffled)

    def signatures(facts):
        slices = StampNeighbors(facts, 8)
        for pid in range(3):
            mine = facts[facts[:, 1] == pid]
            for scope_slices in (None, slices):
                yield signature_series(mine, 8, measure="adar", slices=scope_slices).matrix.tobytes()

    want = list(signatures(facts))
    assert list(signatures(facts[::-1])) == want
    assert list(signatures(facts[shuffled])) == want


def _edges_of(g, pid):
    return [(s, o) for s, _, o, _, _ in _rows_of(g, pid).tolist()]


@settings(max_examples=60, deadline=None)
@given(rows=quintuples)
# a triangle whose edges hold at different stamps only
@example(rows=[(0, 0, 8, 0, 0), (8, 0, 16, 2, 0), (16, 0, 0, 4, 0)])
def test_no_shared_neighbors_means_zero_signature(rows):
    """At predicate scope, split_cpd scores exactly the predicates some of
    whose edges' ends share a neighbor among its edges of all stamps; the
    Adamic-Adar and Jaccard signatures of the others must be all zero."""
    facts = [(s, p, o, b, min(b + k, 7)) for s, p, o, b, k in rows]
    g = build_graph(facts, num_entities=41, num_predicates=3, num_times=8)
    shares = []
    for pid in range(g.num_predicates):
        index = NeighborIndex(_edges_of(g, pid))
        if any(index.neighbors(s) & index.neighbors(o) for s, o in _edges_of(g, pid)):
            shares.append(pid)
            continue
        for measure in ZERO_UNLESS_SHARED:
            sig = _signature(g, pid, measure=measure)
            assert not sig.matrix.any(), (measure, pid)
    for measure in ZERO_UNLESS_SHARED:
        assert _scored(g, measure) == shares, measure


def _scored(g, measure):
    """The predicates split_cpd builds a signature of at predicate scope."""
    scored = []

    def record(rows, *args, **kwargs):
        scored.append(int(rows[0, 1]))
        return signature_series(rows, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "signature_series", record)
        split_cpd(g, score=measure, epsilon=1.0)
    return scored


def test_can_share_neighbors_cases():
    """Predicate 0 has no edge, 1 is a 4-cycle, 2 a triangle on the 4-cycle's
    nodes, and 3 holds one self-loop: NeighborIndex puts 1 in N(1), so 1 is
    a common neighbor of the pair (0, 1) and the skip must be off."""
    edges = {1: [(0, 1), (1, 2), (2, 3), (3, 0)], 2: [(0, 1), (2, 1), (0, 2)],
             3: [(0, 1), (1, 1)]}
    facts = [(s, p, o, 0, 1) for p, pairs in edges.items() for s, o in pairs]
    for measure in ZERO_UNLESS_SHARED:
        assert _scored(build_graph(facts, num_predicates=4), measure) == [2, 3]
        assert _scored(build_graph([], num_entities=1, num_predicates=2, num_times=2),
                       measure) == []
    g = build_graph([(0, 0, 1, 0, 0), (1, 0, 1, 0, 0)], num_times=1)
    assert _signature(g, 0, measure="jaccard").matrix.tolist() == [[0.5, 1.0]]
    assert _signature(g, 0, measure="adar").matrix[0, 0] == 1 / math.log(2)

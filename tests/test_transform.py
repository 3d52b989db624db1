"""Transformations: timestamping, splitting, merging, and their lineage."""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tkgkit import (
    Lineage,
    TemporalGraph,
    identity,
    merge,
    random_split,
    save_lineage,
    split_cpd,
    split_parameterized,
    timestamp,
)
from tkgkit import transform
from tkgkit.cpd import bottom_up, normalize_rows
from tkgkit.proximity import PROXIMITY_MEASURES, SIGNATURE_SCOPES, ZERO_UNLESS_SHARED
from tkgkit.transform import _base_report, _finish, _MutableTKG

from conftest import build_graph, reference_signature, unroll


def coverage(g, lineage=None):
    return set(unroll(g, lineage))


# one output predicate's provenance: its source's label, its interval, and
# its stamp or None
Entry = namedtuple("Entry", "source begin end stamp", defaults=(None,))


def entries(lineage):
    """The lineage arrays as one Entry per output predicate id."""
    return {
        p: Entry(lineage.source_labels[src], b, e, None if t < 0 else t)
        for p, (src, b, e, t) in enumerate(zip(*(a.tolist() for a in lineage[:4])))
    }


# ---------------------------------------------------------------------------
# identity / timestamp
# ---------------------------------------------------------------------------

def test_identity_passthrough(tiny_graph):
    res = identity(tiny_graph)
    assert res.graph is tiny_graph
    assert res.report.method == "none"
    last = tiny_graph.num_timestamps - 1
    for p, ent in entries(res.lineage).items():
        assert ent.source == tiny_graph.predicate_labels[p]
        assert (ent.begin, ent.end, ent.stamp) == (0, last, None)


def test_timestamp_fact_count(tiny_graph):
    res = timestamp(tiny_graph)
    want = sum(e - b + 1 for *_, b, e in tiny_graph.facts.tolist())
    assert len(res.graph.facts) == want
    assert res.report.facts_after == want
    assert all(b == e for *_, b, e in res.graph.facts.tolist())


def test_timestamp_labels_and_lineage(tiny_graph):
    res = timestamp(tiny_graph)
    observed = set()
    for _, p, _, b, e in tiny_graph.facts.tolist():
        for t in range(b, e + 1):
            observed.add((p, t))
    want_labels = {
        f"{tiny_graph.predicate_labels[p]}@{tiny_graph.time_labels[t]}"
        for p, t in observed
    }
    assert set(res.graph.predicate_labels) == want_labels
    assert res.graph.num_predicates == len(observed)
    for pid, ent in entries(res.lineage).items():
        assert ent.begin == ent.end == ent.stamp
        label = res.graph.predicate_labels[pid]
        assert label == f"{ent.source}@{res.graph.time_labels[ent.stamp]}"


def test_timestamp_preserves_unroll(tiny_graph):
    res = timestamp(tiny_graph)
    assert unroll(res.graph, res.lineage) == unroll(tiny_graph)


def test_timestamp_label_collision_guard():
    g = build_graph(
        [(0, 0, 1, 2, 2), (0, 1, 1, 0, 0)],
        num_times=3,
    )
    # rename predicate 1 to collide with the stamped label of predicate 0
    g = type(g)(
        facts=g.facts,
        splits=g.splits,
        entity_labels=g.entity_labels,
        predicate_labels=("r0", "r0@2"),
        time_labels=g.time_labels,
    )
    res = timestamp(g)
    labels = list(res.graph.predicate_labels)
    assert len(labels) == len(set(labels))
    # r0 stamped at t=2 collides with the other source's name and gets marked
    assert set(labels) == {"r0@2'", "r0@2@0"}


# ---------------------------------------------------------------------------
# one cut: what split_parameterized and random_split make at each step
# ---------------------------------------------------------------------------

def cut(g, *cuts):
    """The result of one ``_MutableTKG.split_at`` cut at each (pid, t) in turn."""
    mg = _MutableTKG(g)
    for pid, t in cuts:
        mg.split_at(pid, [t])
    return _finish(mg, _base_report("cut", {}, g))


def test_split_once_partitions_facts():
    g = build_graph(
        [
            (0, 0, 1, 0, 4),  # spans the split point
            (1, 0, 2, 0, 1),  # entirely left
            (2, 0, 3, 3, 4),  # entirely right
        ],
        splits=[0, 1, 2],
        num_times=5,
    )
    res = cut(g, (0, 2))
    out = res.graph
    assert out.num_predicates == 2
    assert out.predicate_labels == ("r0#1[0,2]", "r0#2[2,4]")
    rows = sorted((p, s, o, b, e, sp) for (s, p, o, b, e), sp
                  in zip(out.facts.tolist(), out.splits.tolist()))
    assert rows == [
        (0, 0, 1, 0, 2, 0),  # spanning fact, left half
        (0, 1, 2, 0, 1, 1),
        (1, 0, 1, 2, 4, 0),  # spanning fact, right half
        (1, 2, 3, 3, 4, 2),
    ]
    lineage = entries(res.lineage)
    assert lineage[0].begin == 0 and lineage[0].end == 2
    assert lineage[1].begin == 2 and lineage[1].end == 4
    assert coverage(out, res.lineage) == coverage(g)


def test_split_once_boundary_facts_span():
    # the spanning branch is checked first, so any fact touching t lands in
    # both children, cut at t; strictly-one-sided facts move whole
    g = build_graph([(0, 0, 1, 0, 2), (1, 0, 2, 2, 4), (2, 0, 3, 0, 1)], num_times=5)
    res = cut(g, (0, 2))
    by_pred = {}
    for s, p, _, b, e in res.graph.facts.tolist():
        by_pred.setdefault(p, []).append((s, b, e))
    assert by_pred[0] == [(0, 0, 2), (1, 2, 2), (2, 0, 1)]
    assert by_pred[1] == [(0, 2, 2), (1, 2, 4)]


def test_split_once_chained_lineage():
    g = build_graph([(0, 0, 1, 0, 9)], num_times=10)
    # the first cut gives children 1 and 2; cut the right one again
    res = cut(g, (0, 4), (2, 7))
    assert res.graph.num_predicates == 3
    for ent in entries(res.lineage).values():
        assert ent.source == "r0"  # the input predicate, not the intermediate
    # intervals tile the source span, overlapping only at split points
    ivs = sorted((ent.begin, ent.end) for ent in entries(res.lineage).values())
    assert ivs == [(0, 4), (4, 7), (7, 9)]
    assert coverage(res.graph, res.lineage) == coverage(g)


def test_split_ordinals_count_per_source():
    g = build_graph([(0, 0, 1, 0, 9), (0, 1, 1, 0, 9)], num_times=10)
    res = split_parameterized(g, "time", grow=2)
    # two sources, one split each: ordinals restart per source
    assert set(res.graph.predicate_labels) == {
        "r0#1[0,4]", "r0#2[4,9]", "r1#1[0,4]", "r1#2[4,9]"
    }


# ---------------------------------------------------------------------------
# split_parameterized
# ---------------------------------------------------------------------------

def test_split_time_most_frequent_first():
    facts = [(0, 0, 1, 0, 9)] * 4 + [(1, 1, 2, 0, 9)]
    g = build_graph(facts, num_times=10)
    res = split_parameterized(g, "time", grow=1.5)  # target 3: one split
    assert res.report.splits_applied == 1
    assert res.report.split_points == [("r0", "4")]  # midpoint (0+9)//2


def test_split_time_tie_prefers_lower_id():
    g = build_graph([(0, 0, 1, 0, 9), (0, 1, 1, 0, 9)], num_times=10)
    res = split_parameterized(g, "time", grow=1.5)
    assert res.report.split_points[0][0] == "r0"


def test_split_grow_target_exact():
    g = build_graph([(0, 0, 1, 0, 31)], num_times=32)
    res = split_parameterized(g, "time", grow=8)
    assert res.graph.num_predicates == 8
    assert coverage(res.graph, res.lineage) == coverage(g)


def test_split_grow_validation():
    g = build_graph([(0, 0, 1, 0, 3)])
    with pytest.raises(ValueError):
        split_parameterized(g, "time", grow=1.0)
    with pytest.raises(ValueError):
        split_parameterized(g, "sorted", grow=2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: split_parameterized(g, "time", math.nan), "grow must be > 1"),
        (lambda g: split_parameterized(g, "count", math.nan), "grow must be > 1"),
        (lambda g: random_split(g, math.nan), "grow must be > 1"),
        (lambda g: merge(g, math.nan), "shrink must be > 1"),
    ],
    ids=["split_time", "split_count", "random_split", "merge"],
)
def test_nan_grow_and_shrink_are_refused(tiny_graph, call, message):
    # NaN fails every comparison: a guard written as grow <= 1 lets it through
    with pytest.raises(ValueError, match=message):
        call(tiny_graph)


def test_split_unsplittable_heap_exhaustion():
    # every fact occupies a single timestamp: no predicate can be split
    g = build_graph([(0, 0, 1, 3, 3), (1, 1, 2, 5, 5)], num_times=6)
    res = split_parameterized(g, "time", grow=2)
    assert res.graph.num_predicates == 2
    assert res.report.splits_applied == 0
    assert any("no splittable" in w for w in res.report.warnings)


def test_split_count_example():
    # four facts with intervals (1,1), (1,1), (2,2), (9,9): the balanced
    # split point is t=2 (3 facts end by then vs 2 starting from then)
    g = build_graph(
        [(0, 0, 1, 1, 1), (1, 0, 2, 1, 1), (2, 0, 3, 2, 2), (3, 0, 4, 9, 9)],
        num_times=10,
    )
    res = split_parameterized(g, "count", grow=2)
    assert res.report.split_points[0] == ("r0", "2")


def test_split_count_matches_bruteforce():
    facts = [
        (0, 0, 1, 0, 6),
        (1, 0, 2, 2, 9),
        (2, 0, 3, 4, 5),
        (3, 0, 4, 1, 3),
        (4, 0, 5, 8, 9),
    ]
    g = build_graph(facts, num_times=10)
    res = split_parameterized(g, "count", grow=2)
    t_got = int(res.report.split_points[0][1])

    best = None
    for t in range(10):
        n_left = sum(1 for f in facts if f[4] <= t)
        n_right = sum(1 for f in facts if f[3] >= t)
        if n_left == 0 or n_right == 0:
            continue
        obj = abs(n_left - n_right)
        if best is None or obj < best[0]:
            best = (obj, t)
    assert t_got == best[1]


def test_split_count_coverage_preserved():
    facts = [(i % 4, 0, (i + 1) % 4, i % 7, i % 7 + 3) for i in range(12)]
    g = build_graph(facts, num_times=10)
    res = split_parameterized(g, "count", grow=4)
    assert coverage(res.graph, res.lineage) == coverage(g)


# ---------------------------------------------------------------------------
# split_cpd
# ---------------------------------------------------------------------------

def _two_phase_graph():
    # pair (0,1) held during [0,4], pair (2,3) during [5,9]
    return build_graph(
        [(0, 0, 1, 0, 4), (2, 0, 3, 5, 9), (0, 1, 1, 0, 9)],
        num_times=10,
    )


def test_split_cpd_finds_the_shift():
    res = split_cpd(_two_phase_graph(), score="pref", epsilon=0.01)
    assert ("r0", "5") in res.report.split_points
    assert res.report.splits_applied >= 1


def test_split_cpd_constant_signature_untouched():
    res = split_cpd(_two_phase_graph(), epsilon=0.01)
    # r1 holds one pair over the whole timeline: constant signature
    assert all(pred != "r1" for pred, _ in res.report.split_points)


def test_split_cpd_large_epsilon_no_splits():
    res = split_cpd(_two_phase_graph(), epsilon=1e6)
    assert res.report.splits_applied == 0
    assert res.graph.num_predicates == 2


def test_split_cpd_out_of_span_point_skipped():
    # active only on [0,5] of a 12-step timeline: the zero tail puts the
    # detected change point past the active span
    g = build_graph([(0, 0, 1, 0, 5)], num_times=12)
    res = split_cpd(g, epsilon=0.01)
    assert res.report.skipped_points >= 1
    assert res.report.splits_applied == 0


def test_split_cpd_coverage_preserved():
    g = _two_phase_graph()
    res = split_cpd(g, epsilon=0.01)
    assert coverage(res.graph, res.lineage) == coverage(g)


def test_split_cpd_validates_config():
    with pytest.raises(ValueError):
        split_cpd(_two_phase_graph(), epsilon=-1)
    with pytest.raises(ValueError, match="unknown signature scope 'global'"):
        split_cpd(_two_phase_graph(), scope="global")


def test_split_cpd_rejects_unknown_score_with_no_predicates():
    # no predicate is scored, so only an up-front check catches the name
    g = TemporalGraph(np.empty((0, 5)), [], ("a",), (), ("0",))
    for scope in SIGNATURE_SCOPES:
        with pytest.raises(ValueError, match="unknown proximity measure 'simrank'"):
            split_cpd(g, score="simrank", scope=scope)


def test_split_cpd_graph_pref_builds_no_neighbor_sets():
    """Every measure, at either scope, cuts r0 at stamp 5, where its pairs'
    neighbourhoods change, unless the predicate scope's skip leaves it whole."""
    # pair (0, 1) shares 2 during [0, 4], pair (2, 3) holds during [5, 9];
    # on their own edges r0 and r1 share no neighbor, and are skipped
    skipped = build_graph([(0, 0, 1, 0, 4), (2, 0, 3, 5, 9), (0, 1, 2, 0, 9), (1, 1, 2, 0, 9)])
    # r0 closes a triangle during [0, 4], then holds pair (2, 3)
    triangle = build_graph([(0, 0, 1, 0, 4), (0, 0, 2, 0, 4), (1, 0, 2, 0, 4), (2, 0, 3, 5, 9)])
    for score in PROXIMITY_MEASURES:
        for scope in SIGNATURE_SCOPES:
            for g in (skipped, triangle):
                res = split_cpd(g, score=score, epsilon=0.01, scope=scope)
                skip = g is skipped and scope == "predicate" and score in ZERO_UNLESS_SHARED
                assert (("r0", "5") in res.report.split_points) != skip, (score, scope)


@pytest.mark.parametrize("min_size, jump", [(7, 1), (1, 10), (4, 7), (6, 6)])
def test_split_cpd_warns_when_no_cut_is_possible(monkeypatch, min_size, jump):
    """bottom_up's grid starts at the least multiple of jump >= min_size
    and must leave min_size stamps after it; with no such point no
    signature is built, and the report says why nothing was cut."""
    def refuse(*args, **kwargs):
        raise AssertionError("signature built")

    g = _two_phase_graph()  # 10 stamps
    monkeypatch.setattr(transform, "signature_series", refuse)
    res = split_cpd(g, epsilon=0.01, min_size=min_size, jump=jump)
    assert res.graph.facts.tolist() == g.facts.tolist()
    assert res.report.split_points == []
    assert res.report.warnings == [
        f"no cut possible: min_size {min_size} and jump {jump}"
        " leave no grid point inside 10 timestamps"
    ]


def test_split_cpd_cuts_at_the_last_grid_point():
    # the first multiple of jump = 5 is the last point leaving min_size = 5
    g = _two_phase_graph()
    res = split_cpd(g, epsilon=0.01, min_size=5, jump=5)
    assert res.report.split_points == [("r0", "5")]
    assert res.report.warnings == []


class Buckets:
    """The transform's working copy as first written: a list of (s, p, o, b,
    e, split) rows per live predicate, whose p column keeps the input
    predicate, moved by every cut.  The references cut here, so none of
    them reads the row rule that _MutableTKG derives rows from."""

    def __init__(self, g):
        self.g = g
        self.labels = list(g.predicate_labels)
        last = g.num_timestamps - 1
        self.lineage = [(p, 0, last, -1) for p in range(g.num_predicates)]
        self.buckets = {p: [] for p in range(g.num_predicates)}
        for (s, p, o, b, e), sp in zip(g.facts.tolist(), g.splits.tolist()):
            self.buckets[p].append((s, p, o, b, e, sp))
        self.split_points = []
        self._ordinal = defaultdict(int)

    def new_predicate(self, label, record):
        while label in self.labels:
            label += "'"
        self.labels.append(label)
        self.lineage.append(record)
        return len(self.labels) - 1

    def span(self, pid):
        rows = self.buckets[pid]
        return (min(r[3] for r in rows), max(r[4] for r in rows)) if rows else None

    def finalize(self):
        order = sorted(self.buckets)
        rows = [(s, new, o, b, e, sp) for new, pid in enumerate(order)
                for s, _, o, b, e, sp in self.buckets[pid]]
        graph = TemporalGraph(
            facts=[r[:5] for r in rows],
            splits=[r[5] for r in rows],
            entity_labels=self.g.entity_labels,
            predicate_labels=tuple(self.labels[pid] for pid in order),
            time_labels=self.g.time_labels,
        )
        records = np.array([self.lineage[pid] for pid in order], dtype=np.int64).reshape(-1, 4)
        return graph, Lineage(*records.T, self.g.predicate_labels)


def reference_split_once(mg, pid, t):
    """One cut as first written, on a Buckets store: one pass over the rows.
    Returns the two children."""
    src, lo, hi, _ = mg.lineage[pid]
    name, tl = mg.g.predicate_labels[src], mg.g.time_labels
    mg.split_points.append((mg.labels[pid], tl[t]))
    n = mg._ordinal[src]
    mg._ordinal[src] = n + 2
    r1 = mg.new_predicate(f"{name}#{n + 1}[{tl[lo]},{tl[t]}]", (src, lo, t, -1))
    r2 = mg.new_predicate(f"{name}#{n + 2}[{tl[t]},{tl[hi]}]", (src, t, hi, -1))
    left, right = [], []
    for s, p, o, b, e, sp in mg.buckets.pop(pid):
        if b <= t <= e:
            left.append((s, p, o, b, t, sp))
            right.append((s, p, o, t, e, sp))
        elif e <= t:
            left.append((s, p, o, b, e, sp))
        else:
            right.append((s, p, o, b, e, sp))
    mg.buckets[r1] = left
    mg.buckets[r2] = right
    return r1, r2


def assert_same_state(got, want):
    """A _MutableTKG and a Buckets store hold the same predicates, and
    every live one the same rows."""
    assert got.labels == want.labels
    assert got.lineage == want.lineage
    assert dict(got._ordinal) == dict(want._ordinal)
    assert got.split_points == want.split_points
    assert got.live == set(want.buckets)
    for pid, rows in want.buckets.items():
        assert got.rows(pid).tolist() == [list(r) for r in rows]
    (graph, lineage), (want_graph, want_lineage) = got.finalize(), want.finalize()
    assert graph == want_graph
    assert entries(lineage) == entries(want_lineage)


def reference_split_cpd(g, score, scope, *, epsilon, min_size=1, jump=1, gamma=None):
    """split_cpd as first written: a signature for every predicate, then one
    cut per change point, each on the rightmost child so far, its span
    scanned from the child's rows."""
    mg = Buckets(g)
    params = {
        "score": score,
        "epsilon": epsilon,
        "min_size": min_size,
        "jump": jump,
        "gamma": "median" if gamma is None else gamma,
        "scope": scope,
    }
    report = _base_report("split_cpd", params, g)
    for pid in range(g.num_predicates):
        matrix = reference_signature(g, pid, score, scope)
        if matrix.size == 0 or bool(np.all(matrix == matrix[0])):
            continue
        x = normalize_rows(matrix)
        seg = bottom_up(x, epsilon, min_size=min_size, jump=jump, gamma=gamma)
        current = pid
        applied = []
        for k in seg.change_points:
            span = mg.span(current)
            if span is None or span[0] >= span[1] or not span[0] <= k <= span[1]:
                report.skipped_points += 1
                continue
            _, current = reference_split_once(mg, current, k)
            applied.append(k)
        if applied:
            report.notes.append(
                f"{g.predicate_labels[pid]}: change points at "
                + ",".join(g.time_labels[k] for k in applied)
            )
    return _finish(mg, report)


def assert_same_split(g, score, scope, **settings):
    got = split_cpd(g, score, scope=scope, **settings)
    want = reference_split_cpd(g, score, scope, **settings)
    assert got.graph.facts.tolist() == want.graph.facts.tolist()
    assert got.graph.splits.tolist() == want.graph.splits.tolist()
    assert got.graph.predicate_labels == want.graph.predicate_labels
    assert entries(got.lineage) == entries(want.lineage)
    assert got.report.format() == want.report.format()
    return got


def _relabel(g, labels):
    return TemporalGraph(
        facts=g.facts,
        splits=g.splits,
        entity_labels=g.entity_labels,
        predicate_labels=tuple(labels),
        time_labels=g.time_labels,
    )


def test_split_cpd_cut_labels_collide():
    # "a" changes at 3 and 6: the first cut makes a#1[0,3] and a#2[3,8],
    # the second cuts a#2[3,8] into a#3[3,6] and a#4[6,8].  Two constant
    # predicates already hold the labels of the replaced child and of a#3
    g = build_graph(
        [(0, 0, 1, 0, 2), (2, 0, 3, 3, 5), (4, 0, 5, 6, 8), (0, 1, 1, 0, 8), (0, 2, 1, 0, 8)],
        num_times=9,
    )
    g = _relabel(g, ["a", "a#2[3,8]", "a#3[3,6]"])
    res = assert_same_split(g, "pref", "predicate", epsilon=0.01)
    assert res.report.split_points == [("a", "3"), ("a#2[3,8]'", "6")]
    assert res.graph.predicate_labels == (
        "a#2[3,8]", "a#3[3,6]", "a#1[0,3]", "a#3[3,6]'", "a#4[6,8]"
    )
    assert [(e.begin, e.end) for e in entries(res.lineage).values()] == [
        (0, 8), (0, 8), (0, 3), (3, 6), (6, 8)
    ]


# (s, p, o, begin, length) on 12 stamps: five entities make self-loops,
# parallel edges and triangles likely, also triangles whose edges hold at
# different stamps; short intervals leave stretches without facts, where
# change points can fall outside a child's span
cpd_rows = st.lists(
    st.tuples(
        st.integers(0, 4), st.integers(0, 2), st.integers(0, 4),
        st.integers(0, 11), st.integers(0, 5),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=80, deadline=None)
@given(
    rows=cpd_rows,
    score=st.sampled_from(PROXIMITY_MEASURES),
    scope=st.sampled_from(SIGNATURE_SCOPES),
    epsilon=st.sampled_from([0.01, 0.3, 2.0]),
    min_size=st.sampled_from([1, 2]),
)
# a change point past the active span is skipped
@example(rows=[(0, 0, 1, 0, 5)], score="pref", scope="predicate", epsilon=0.01, min_size=1)
# a triangle only across stamps: adar and jaccard are zero at every stamp
@example(rows=[(0, 0, 1, 0, 0), (1, 0, 2, 3, 0), (0, 0, 2, 6, 0)],
         score="adar", scope="predicate", epsilon=0.01, min_size=1)
# a self-loop next to a parallel edge
@example(rows=[(1, 0, 1, 0, 2), (0, 0, 1, 0, 5), (0, 0, 1, 2, 3), (1, 0, 2, 6, 5)],
         score="jaccard", scope="predicate", epsilon=0.01, min_size=1)
def test_split_cpd_matches_reference(rows, score, scope, epsilon, min_size):
    facts = [(s, p, o, b, min(b + k, 11)) for s, p, o, b, k in rows]
    used = sorted({f[1] for f in facts})
    facts = [(s, used.index(p), o, b, e) for s, p, o, b, e in facts]
    g = build_graph(facts, splits=[i % 3 for i in range(len(facts))],
                    num_entities=5, num_times=12)
    assert_same_split(g, score, scope, epsilon=epsilon, min_size=min_size)


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------

def test_merge_full_restores_source_count(tiny_graph):
    res = merge(tiny_graph, shrink=math.inf)
    assert res.graph.num_predicates == tiny_graph.num_predicates
    srcs = {ent.source for ent in entries(res.lineage).values()}
    assert srcs == set(tiny_graph.predicate_labels)
    assert any("fully merged" in n for n in res.report.notes)
    assert unroll(res.graph, res.lineage) == unroll(tiny_graph)


def test_merge_least_facts_first():
    # r@0 and r@1 carry one fact each, r@2 two: cheapest pair merges first
    g = build_graph(
        [(0, 0, 1, 0, 0), (0, 0, 1, 1, 1), (2, 0, 3, 2, 2), (3, 0, 4, 2, 2)],
        num_times=3,
    )
    res = merge(g, shrink=1.5)  # timestamped 3 -> target 2: one merge
    assert res.report.merges_applied == 1
    assert res.report.merge_trace == ["r0@0 + r0@1 -> r0~[0,1]"]
    assert set(res.graph.predicate_labels) == {"r0~[0,1]", "r0@2"}


def test_merge_tie_breaks_on_stamp_then_source():
    # all pairs weigh the same; r0's earliest-stamp pair goes first
    g = build_graph(
        [(0, 0, 1, 0, 2), (0, 1, 1, 0, 2)],
        num_times=3,
    )
    res = merge(g, shrink=1.2)  # 6 stamped -> target 5: one merge
    assert res.report.merge_trace == ["r0@0 + r0@1 -> r0~[0,1]"]


def test_merge_stop_threshold():
    g = build_graph([(0, 0, 1, 0, 9)], num_times=10)
    res = merge(g, shrink=2)  # 10 stamped -> target 5
    assert res.graph.num_predicates == 5


def test_merge_lineage_intervals():
    g = build_graph([(0, 0, 1, 0, 3)], num_times=4)
    res = merge(g, shrink=math.inf)
    ent = entries(res.lineage)[0]
    assert (ent.source, ent.begin, ent.end, ent.stamp) == ("r0", 0, 3, None)
    assert res.graph.predicate_labels == ("r0~[0,3]",)


def test_merge_validation():
    g = build_graph([(0, 0, 1, 0, 3)])
    with pytest.raises(ValueError):
        merge(g, shrink=1.0)


def test_merge_preserves_unroll(tiny_graph):
    res = merge(tiny_graph, shrink=3)
    assert unroll(res.graph, res.lineage) == unroll(tiny_graph)


# ---------------------------------------------------------------------------
# random baseline
# ---------------------------------------------------------------------------

def test_random_split_deterministic(tiny_graph):
    a = random_split(tiny_graph, grow=3, seed=17)
    b = random_split(tiny_graph, grow=3, seed=17)
    assert a.graph.predicate_labels == b.graph.predicate_labels
    assert a.graph.facts.tolist() == b.graph.facts.tolist()


def test_random_split_seed_changes_result(tiny_graph):
    a = random_split(tiny_graph, grow=4, seed=0)
    b = random_split(tiny_graph, grow=4, seed=1)
    assert a.report.split_points != b.report.split_points


def test_random_split_reaches_target(tiny_graph):
    res = random_split(tiny_graph, grow=3, seed=5)
    assert res.graph.num_predicates == 3 * tiny_graph.num_predicates
    assert coverage(res.graph, res.lineage) == coverage(tiny_graph)


def test_random_split_rejection_stop():
    g = build_graph([(0, 0, 1, 3, 3)], num_times=4)
    res = random_split(g, grow=2, seed=0)
    assert res.graph.num_predicates == 1
    assert any("100 consecutive" in w for w in res.report.warnings)


def test_random_split_validation(tiny_graph):
    with pytest.raises(ValueError):
        random_split(tiny_graph, grow=0.5)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        random_split(tiny_graph, grow=2, seed=-3)


# ---------------------------------------------------------------------------
# report / lineage persistence
# ---------------------------------------------------------------------------

def test_report_format_lines(tiny_graph):
    res = split_parameterized(tiny_graph, "time", grow=2)
    text = res.report.format()
    lines = text.strip().split("\n")
    assert lines[0] == "method\tsplit_time"
    assert f"predicates.after\t{res.graph.num_predicates}" in lines
    assert sum(1 for l in lines if l.startswith("split\t")) == res.report.splits_applied


def read_lineage(g, path):
    """A lineage sidecar's rows, labels mapped back to ids: derived,
    source, begin, end[, stamp]."""
    pid = {label: i for i, label in enumerate(g.predicate_labels)}
    tid = {label: i for i, label in enumerate(g.time_labels)}
    lineage = {}
    for line in path.read_text(encoding="utf-8").split("\n")[:-1]:
        derived, source, *stamps = line.split("\t")
        lineage[pid[derived]] = Entry(source, *(tid[t] for t in stamps))
    return lineage


def test_lineage_roundtrip(tmp_path, tiny_graph):
    res = timestamp(tiny_graph)
    path = tmp_path / "lineage.tsv"
    save_lineage(res.graph, res.lineage, path)
    assert read_lineage(res.graph, path) == entries(res.lineage)
    first = path.read_text().splitlines()[0].split("\t")
    assert len(first) == 5  # stamped predicates carry the stamp column


def test_lineage_roundtrip_without_stamp(tmp_path, tiny_graph):
    res = split_parameterized(tiny_graph, "time", grow=2)
    path = tmp_path / "lineage.tsv"
    save_lineage(res.graph, res.lineage, path)
    assert read_lineage(res.graph, path) == entries(res.lineage)
    first = path.read_text().splitlines()[0].split("\t")
    assert len(first) == 4


# ---------------------------------------------------------------------------
# property: every transformation preserves covered ground facts
# ---------------------------------------------------------------------------

@st.composite
def graphs(draw):
    """Small graphs in which some predicates may have no fact: split
    methods keep those with no rows, timestamp and merge drop them."""
    n_t = draw(st.integers(2, 6))
    n_e = draw(st.integers(2, 5))
    n_p = draw(st.integers(1, 4))
    n_f = draw(st.integers(1, 10))
    facts = []
    splits = []
    for _ in range(n_f):
        b = draw(st.integers(0, n_t - 1))
        e = draw(st.integers(b, n_t - 1))
        facts.append(
            (
                draw(st.integers(0, n_e - 1)),
                draw(st.integers(0, n_p - 1)),
                draw(st.integers(0, n_e - 1)),
                b,
                e,
            )
        )
        splits.append(draw(st.integers(0, 2)))
    return build_graph(facts, splits=splits, num_entities=n_e,
                       num_predicates=n_p, num_times=n_t)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_timestamp_unroll_property(g):
    res = timestamp(g)
    assert unroll(res.graph, res.lineage) == unroll(g)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_merge_unroll_property(g):
    res = merge(g, shrink=2.5)
    assert unroll(res.graph, res.lineage) == unroll(g)


def reference_merge(g, shrink):
    """merge by its definition, from ``timestamp(g)``: each step scans every
    adjacent pair of live predicates of one source and merges the pair with
    the fewest combined facts (ties: earlier begin, then lower source id).
    Returns the merge trace, the notes, and each output predicate's label,
    source, begin and end by output id."""
    ts = timestamp(g)
    tl = g.time_labels
    source = {label: p for p, label in enumerate(g.predicate_labels)}
    used = set(g.predicate_labels) | set(ts.graph.predicate_labels)
    facts = np.bincount(ts.graph.facts[:, 1], minlength=ts.graph.num_predicates).tolist()
    # (label, source, begin, end, facts) by id; a merged predicate takes the next id
    live = {p: (ts.graph.predicate_labels[p], ent.source, ent.begin, ent.end, facts[p])
            for p, ent in entries(ts.lineage).items()}
    stamped = len(live)
    target = stamped / shrink
    notes = [f"timestamped predicates: {stamped}"]
    trace = []
    while len(live) > target:
        chain = sorted(live, key=lambda p: (source[live[p][1]], live[p][2]))
        pairs = [((live[a][4] + live[b][4], live[a][2], source[live[a][1]]), a, b)
                 for a, b in zip(chain, chain[1:]) if live[a][1] == live[b][1]]
        if not pairs:
            notes.append("fully merged: one predicate per source")
            break
        _, a, b = min(pairs)
        (label_a, src, begin, _, n_a), (label_b, _, _, end, n_b) = live.pop(a), live.pop(b)
        label = f"{src}~[{tl[begin]},{tl[end]}]"
        while label in used:
            label += "'"
        used.add(label)
        live[stamped + len(trace)] = (label, src, begin, end, n_a + n_b)
        trace.append(f"{label_a} + {label_b} -> {label}")
    return trace, notes, [live[p][:4] for p in sorted(live)]


@settings(max_examples=40, deadline=None)
@given(graphs())
# stamps hold 4, 3, 1, 2 and 5 facts: after @2 + @3, the pair that merge
# made, @1 + [2,3] (6 facts), goes before the older @0 + @1 (7)
@example(g=build_graph([(0, 0, 1, t, t) for t in (0, 0, 0, 0, 1, 1, 1, 2, 3, 3, 4, 4, 4, 4, 4)],
                       num_times=5))
def test_merge_matches_reference(g):
    for shrink in (1.5, 2.5, math.inf):
        res = merge(g, shrink)
        got = [(res.graph.predicate_labels[p], ent.source, ent.begin, ent.end)
               for p, ent in sorted(entries(res.lineage).items())]
        assert (res.report.merge_trace, res.report.notes, got) == reference_merge(g, shrink)


@settings(max_examples=40, deadline=None)
@given(graphs(), st.integers(0, 3))
def test_random_split_coverage_property(g, seed):
    res = random_split(g, grow=2, seed=seed)
    assert coverage(res.graph, res.lineage) == coverage(g)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_split_time_coverage_property(g):
    res = split_parameterized(g, "time", grow=2)
    assert coverage(res.graph, res.lineage) == coverage(g)


LINEAGE_TRANSFORMS = {
    "identity": identity,
    "timestamp": timestamp,
    "split_time": lambda g: split_parameterized(g, "time", grow=2),
    "split_count": lambda g: split_parameterized(g, "count", grow=2),
    "split_cpd": lambda g: split_cpd(g, epsilon=0.01),
    "split_cpd_graph": lambda g: split_cpd(g, "adar", epsilon=0.01, scope="graph"),
    "merge": lambda g: merge(g, shrink=2.5),
    "random_split": lambda g: random_split(g, grow=2, seed=3),
}


@pytest.mark.parametrize("method", sorted(LINEAGE_TRANSFORMS))
def test_empty_graph_transforms_to_empty_graph(method):
    # no predicates and no facts: an empty result, not a bucket for a
    # predicate id 0 that has no label
    g = TemporalGraph(np.empty((0, 5)), [], ("a",), (), ("0",))
    res = LINEAGE_TRANSFORMS[method](g)
    assert res.graph.facts.shape == (0, 5)
    assert res.graph.predicate_labels == ()
    assert entries(res.lineage) == {}
    assert (res.report.predicates_after, res.report.facts_after) == (0, 0)


# the methods whose predicates read one row per stamp
PER_STAMP = {"timestamp", "merge"}


def assert_lineage_holds_facts(g, res, per_stamp):
    """One lineage entry per output predicate, a stamp that is the whole
    interval, and each predicate's rows by the row rule: its source's facts
    in ``g`` that meet its interval, clipped to it, in fact order; with
    ``per_stamp``, one row per stamp, in stamp order and then fact order."""
    n = res.graph.num_predicates
    assert [(a.dtype, a.shape) for a in res.lineage[:4]] == [(np.int64, (n,))] * 4
    assert res.lineage.source_labels == g.predicate_labels
    lineage = entries(res.lineage)
    for ent in lineage.values():
        if ent.stamp is not None:
            assert ent.begin == ent.stamp == ent.end
    source = {label: p for p, label in enumerate(g.predicate_labels)}
    facts = list(zip(g.facts.tolist(), g.splits.tolist()))
    want = {}
    for pid, ent in lineage.items():
        mine = [(s, o, b, e, sp) for (s, p, o, b, e), sp in facts if p == source[ent.source]]
        if per_stamp:
            want[pid] = [(s, pid, o, t, t, sp) for t in range(ent.begin, ent.end + 1)
                         for s, o, b, e, sp in mine if b <= t <= e]
        else:
            want[pid] = [(s, pid, o, max(b, ent.begin), min(e, ent.end), sp)
                         for s, o, b, e, sp in mine if b <= ent.end and e >= ent.begin]
    got = {pid: [] for pid in lineage}
    for row, sp in zip(res.graph.facts.tolist(), res.graph.splits.tolist()):
        got[row[1]].append((*row, sp))
    assert got == want
    if res.graph is not g:  # finalize groups rows by output predicate
        assert sorted(res.graph.facts[:, 1].tolist()) == res.graph.facts[:, 1].tolist()


@settings(max_examples=80, deadline=None)
@given(g=graphs(), method=st.sampled_from(sorted(LINEAGE_TRANSFORMS)), data=st.data())
def test_lineage_intervals_hold_facts_property(g, method, data):
    res = LINEAGE_TRANSFORMS[method](g)
    assert_lineage_holds_facts(g, res, method in PER_STAMP)
    # a second transformation's cut on the result
    facts = res.graph.facts
    pid = data.draw(st.sampled_from(sorted(set(facts[:, 1].tolist()))))
    mine = facts[facts[:, 1] == pid]
    t = data.draw(st.integers(int(mine[:, 3].min()), int(mine[:, 4].max())))
    assert_lineage_holds_facts(res.graph, cut(res.graph, (pid, t)), per_stamp=False)


@settings(max_examples=60, deadline=None)
@given(g=graphs(), data=st.data())
def test_split_once_matches_reference(g, data):
    # split_parameterized and random_split cut once per step
    got, want = _MutableTKG(g), Buckets(g)
    for _ in range(3):
        pid = data.draw(st.sampled_from(sorted(p for p, rows in want.buckets.items() if rows)))
        span = want.span(pid)
        t = data.draw(st.integers(span[0], span[1]))
        assert got.split_at(pid, [t]) == list(reference_split_once(want, pid, t))
        assert_same_state(got, want)

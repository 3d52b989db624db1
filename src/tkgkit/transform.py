"""Graph transformations that move temporal scope into the predicate set.

Each transformation consumes a :class:`~tkgkit.graph.TemporalGraph` and
produces a new graph over the same entities and timestamps, a lineage of
int64 arrays indexed by output predicate id (``source``, its predicate's id
in the input graph; ``begin`` and ``end``, its validity interval in time
ids, inclusive; ``stamp``, its one stamp or -1), and a report of what
happened.  Available rewrites:

* ``timestamp``: one derived predicate per observed (predicate, timestamp).
* ``split_parameterized``: repeatedly halve the most frequent predicate at a
  midpoint ("time") or fact-balancing ("count") timestamp.
* ``split_cpd``: split each predicate at the change points of its proximity
  signature.
* ``merge``: timestamp first, then fuse temporally adjacent derived
  predicates of one source, least occurring first.
* ``random_split``: seeded uniform splitting, the sanity baseline.
"""
from __future__ import annotations

import heapq
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cpd import bottom_up, check_settings, normalize_rows
from .graph import TemporalGraph, distinct_keys, expand_ranges
from .proximity import (
    PROXIMITY_MEASURES,
    SIGNATURE_SCOPES,
    ZERO_UNLESS_SHARED,
    StampNeighbors,
    signature_series,
)

SPLIT_METHODS = ("time", "count")

# the working copy's rows are int64 (s, p, o, b, e, split); the p column
# holds the source predicate until finalize numbers the output ones
_B, _E = 3, 4


class Lineage(NamedTuple):
    """The lineage arrays, and the input graph's predicate labels by id."""

    source: np.ndarray
    begin: np.ndarray
    end: np.ndarray
    stamp: np.ndarray
    source_labels: tuple[str, ...]


def _lineage(records: list[tuple[int, int, int, int]], g: TemporalGraph) -> Lineage:
    return Lineage(*np.array(records, dtype=np.int64).reshape(-1, 4).T, g.predicate_labels)


@dataclass
class TransformReport:
    """What one transformation did.  ``split_points`` holds every cut as
    (label of the predicate cut, timestamp label) and ``merge_trace`` every
    merge; ``splits_applied`` and ``merges_applied`` are their lengths."""

    method: str
    params: dict
    predicates_before: int
    predicates_after: int
    facts_before: int
    facts_after: int
    skipped_points: int = 0
    split_points: list[tuple[str, str]] = field(default_factory=list)
    merge_trace: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def splits_applied(self) -> int:
        return len(self.split_points)

    @property
    def merges_applied(self) -> int:
        return len(self.merge_trace)

    def format(self) -> str:
        lines = [f"method\t{self.method}"]
        for k in sorted(self.params):
            lines.append(f"param.{k}\t{self.params[k]}")
        lines.append(f"predicates.before\t{self.predicates_before}")
        lines.append(f"predicates.after\t{self.predicates_after}")
        lines.append(f"facts.before\t{self.facts_before}")
        lines.append(f"facts.after\t{self.facts_after}")
        if self.splits_applied:
            lines.append(f"splits.applied\t{self.splits_applied}")
        if self.merges_applied:
            lines.append(f"merges.applied\t{self.merges_applied}")
        if self.skipped_points:
            lines.append(f"splits.skipped\t{self.skipped_points}")
        for note in self.notes:
            lines.append(f"note\t{note}")
        for w in self.warnings:
            lines.append(f"warning\t{w}")
        for pred, t in self.split_points:
            lines.append(f"split\t{pred}\t{t}")
        for entry in self.merge_trace:
            lines.append(f"merge\t{entry}")
        return "\n".join(lines) + "\n"


@dataclass
class TransformResult:
    graph: TemporalGraph
    # output predicate p's source, begin, end and stamp are index p of
    # lineage.source, .begin, .end and .stamp
    lineage: Lineage
    report: TransformReport


class _MutableTKG:
    """Working copy of a graph while a transformation runs.

    One record per predicate id: its label in ``labels``, its (source,
    begin, end, stamp) ints in ``lineage``, and ``live`` holds the ids that
    reach the output.  No predicate holds rows: its rows are its source's
    ``base`` rows that meet its lineage interval, clipped to it, in base
    order.  The base holds the input rows by source in fact order or, once
    timestamped, one row per fact and stamp by source, stamp and fact.  So
    a cut or a merge only adds ids, labels and lineage, and ``finalize``
    places every row.  A source is an input predicate id, also for a child
    cut again.  ``split_points`` records every cut ``split_at`` makes.
    """

    def __init__(self, g: TemporalGraph):
        self.g = g
        self.labels: list[str] = list(g.predicate_labels)
        self._used: set[str] = set(self.labels)
        last = g.num_timestamps - 1
        self.lineage = [(p, 0, last, -1) for p in range(g.num_predicates)]
        self.live: set[int] = set(range(g.num_predicates))
        self.split_points: list[tuple[str, str]] = []
        self._ordinal: dict[int, int] = defaultdict(int)
        rows = np.column_stack((g.facts, g.splits))
        self.set_base(rows[np.argsort(rows[:, 1], kind="stable")])

    def set_base(self, rows: np.ndarray) -> None:
        """Source ``p``'s rows are ``rows[offsets[p]:offsets[p + 1]]``."""
        self.base = rows
        self.offsets = np.searchsorted(rows[:, 1], np.arange(self.g.num_predicates + 1))

    def rows(self, pid: int) -> np.ndarray:
        """``pid``'s rows, as ``finalize`` would place them."""
        src, begin, end, _ = self.lineage[pid]
        rows = self.base[self.offsets[src]:self.offsets[src + 1]]
        rows = rows[(rows[:, _B] <= end) & (rows[:, _E] >= begin)]
        np.maximum(rows[:, _B], begin, out=rows[:, _B])
        np.minimum(rows[:, _E], end, out=rows[:, _E])
        return rows

    def new_predicate(self, label: str, record: tuple[int, int, int, int]) -> int:
        while label in self._used:
            label += "'"
        self.labels.append(label)
        self._used.add(label)
        self.lineage.append(record)
        return len(self.lineage) - 1

    def split_at(self, pid: int, cuts: list[int]) -> list[int]:
        """Replace ``pid`` by children cut at one or more increasing stamps.

        Each cut splits the right child of the last one in two that share
        the cut stamp, so a fact spanning it lands in both.  Cuts are not
        checked against the span.  Each cut goes into ``split_points`` under
        the label of the id it replaces: ``pid``, then each right child the
        next cut replaces, which never goes live but keeps its label taken.
        Returns the children in time order.
        """
        src, lo, hi, _ = self.lineage[pid]
        name, tl = self.g.predicate_labels[src], self.g.time_labels
        cut = pid
        children = []
        for t in cuts:
            self.split_points.append((self.labels[cut], tl[t]))
            n = self._ordinal[src]
            self._ordinal[src] = n + 2
            left = f"{name}#{n + 1}[{tl[lo]},{tl[t]}]"
            right = f"{name}#{n + 2}[{tl[t]},{tl[hi]}]"
            children.append(self.new_predicate(left, (src, lo, t, -1)))
            cut = self.new_predicate(right, (src, t, hi, -1))
            lo = t
        children.append(cut)
        self.live.remove(pid)
        self.live.update(children)
        return children

    def finalize(self) -> tuple[TemporalGraph, Lineage]:
        """Compact live predicates into a fresh graph plus its lineage.

        Sorted by source, begin and end, one source's live intervals also
        have increasing ends: they tile its timeline, sharing cut stamps,
        or are disjoint.  So the intervals a base row meets are one run,
        from the first that ends at or after its begin to the last that
        begins at or before its end.
        """
        order = sorted(self.live)
        lineage = _lineage([self.lineage[pid] for pid in order], self.g)
        n_t = self.g.num_timestamps
        src, begin, end = lineage.source * n_t, lineage.begin, lineage.end
        by = np.lexsort((end, src + begin))
        key = self.base[:, 1] * n_t
        # each base row at each interval it meets, then by output id
        which, new = expand_ranges(
            np.searchsorted((src + end)[by], key + self.base[:, _B], side="left"),
            np.searchsorted((src + begin)[by], key + self.base[:, _E], side="right") - 1,
        )
        new = by[new]
        keep = np.argsort(new, kind="stable")
        rows = self.base[which[keep]]
        rows[:, 1] = new = new[keep]
        np.maximum(rows[:, _B], begin[new], out=rows[:, _B])
        np.minimum(rows[:, _E], end[new], out=rows[:, _E])
        graph = TemporalGraph(rows[:, :5], rows[:, 5], self.g.entity_labels,
                              tuple(self.labels[pid] for pid in order), self.g.time_labels)
        return graph, lineage


def _base_report(method: str, params: dict, g: TemporalGraph) -> TransformReport:
    return TransformReport(
        method=method,
        params=params,
        predicates_before=g.num_predicates,
        predicates_after=g.num_predicates,
        facts_before=len(g.facts),
        facts_after=len(g.facts),
    )


def _finish(mg: _MutableTKG, report: TransformReport) -> TransformResult:
    graph, lineage = mg.finalize()
    report.predicates_after = graph.num_predicates
    report.facts_after = len(graph.facts)
    report.split_points = mg.split_points
    return TransformResult(graph=graph, lineage=lineage, report=report)


def identity(g: TemporalGraph) -> TransformResult:
    """No-op transformation; facts and predicates pass through unchanged."""
    last = g.num_timestamps - 1
    lineage = _lineage([(p, 0, last, -1) for p in range(g.num_predicates)], g)
    return TransformResult(graph=g, lineage=lineage, report=_base_report("none", {}, g))


# ---------------------------------------------------------------------------
# timestamping
# ---------------------------------------------------------------------------

def _timestamp_into(mg: _MutableTKG) -> list[tuple[int, int, int]]:
    """Replace every source by one stamped predicate per stamp its facts
    cover, and the base by one row per fact and stamp.  Returns (source id,
    stamped id, fact count) per stamped predicate, by source and stamp."""
    g = mg.g
    n_t = g.num_timestamps
    which, t = expand_ranges(mg.base[:, _B], mg.base[:, _E])
    key = mg.base[which, 1] * n_t + t
    by = np.argsort(key, kind="stable")
    rows = mg.base[which[by]]
    rows[:, _B] = rows[:, _E] = t[by]
    mg.set_base(rows)
    key = key[by]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    src, stamp = (a.tolist() for a in np.divmod(key[first], n_t))
    pids = [0] * len(first)
    # stamped ids in order of first use, fact by fact and then in time
    for i in np.argsort(by[first]).tolist():
        p, k = src[i], stamp[i]
        pids[i] = mg.new_predicate(f"{g.predicate_labels[p]}@{g.time_labels[k]}", (p, k, k, k))
    mg.live = set(pids)
    return list(zip(src, pids, np.diff(first, append=len(key)).tolist()))


def timestamp(g: TemporalGraph) -> TransformResult:
    """One derived predicate per observed (predicate, timestamp) pair.

    A fact valid over [b, e] becomes e - b + 1 single-stamp facts; pairs
    never observed get no predicate.
    """
    mg = _MutableTKG(g)
    _timestamp_into(mg)
    report = _base_report("timestamp", {}, g)
    return _finish(mg, report)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def _splittable_span(rows: np.ndarray) -> tuple[int, int] | None:
    """Earliest begin and latest end of ``rows``; None below two stamps."""
    if not len(rows):
        return None
    lo, hi = int(rows[:, _B].min()), int(rows[:, _E].max())
    return (lo, hi) if lo < hi else None


def _midpoint_split(rows: np.ndarray) -> int | None:
    span = _splittable_span(rows)
    return None if span is None else (span[0] + span[1]) // 2


def _balanced_split(rows: np.ndarray) -> int | None:
    """Timestamp minimizing |#facts ending by t - #facts starting from t|.

    Only timestamps leaving both sides nonempty qualify; ties take the
    earliest timestamp.  Returns None when no qualifying timestamp exists.
    """
    if _splittable_span(rows) is None:
        return None
    begins = np.sort(rows[:, _B])
    ends = np.sort(rows[:, _E])
    # from the earliest end to the latest begin, both sides are nonempty
    t = np.arange(ends[0], begins[-1] + 1)
    if not len(t):
        return None
    n_left = np.searchsorted(ends, t, side="right")
    n_right = len(rows) - np.searchsorted(begins, t, side="left")
    return int(t[np.argmin(np.abs(n_left - n_right))])


def split_parameterized(g: TemporalGraph, method: str, grow: float) -> TransformResult:
    """Grow the predicate set by repeatedly splitting the most frequent one.

    ``method`` picks the split timestamp: "time" takes the floor midpoint of
    the predicate's active span, "count" the timestamp best balancing facts
    ending by it against facts starting from it.  Stops once the predicate
    count reaches ``grow`` times the original count; predicates whose span
    is a single timestamp (or that cannot balance) are left alone.
    """
    if method not in SPLIT_METHODS:
        raise ValueError(f"unknown split method {method!r}; expected one of {SPLIT_METHODS}")
    if not grow > 1:
        raise ValueError("grow must be > 1")
    choose = _midpoint_split if method == "time" else _balanced_split
    mg = _MutableTKG(g)
    target = grow * g.num_predicates
    heap = [(-n, p) for p, n in enumerate(np.diff(mg.offsets).tolist())]
    heapq.heapify(heap)
    report = _base_report(f"split_{method}", {"grow": grow}, g)
    # a popped id is cut or, with no split stamp, never pushed again, so
    # every id in the heap is live
    while len(mg.live) < target:
        if not heap:
            report.warnings.append(
                f"no splittable predicate left at {len(mg.live)} predicates"
                f" (target {target:g})"
            )
            break
        pid = heapq.heappop(heap)[1]
        rows = mg.rows(pid)
        t = choose(rows)
        if t is None:
            continue
        left, right = mg.split_at(pid, [t])
        heapq.heappush(heap, (-int(np.count_nonzero(rows[:, _B] <= t)), left))
        heapq.heappush(heap, (-int(np.count_nonzero(rows[:, _E] >= t)), right))
    return _finish(mg, report)


def _cpd_cuts(rows: np.ndarray, points: list[int]) -> tuple[list[int], int]:
    """The increasing ``points`` that split_cpd applies, and how many it skips.

    Each point cuts the right child of the last cut, and is skipped when that
    child's active span is one stamp or does not hold it.  The span is taken
    from the rows' sorted ends: every child made this way keeps the latest
    end, and the child right of a cut at c holds the rows ending at or after
    c, so it begins at c or at the earliest begin among them.
    """
    order = np.argsort(rows[:, _E], kind="stable")
    ends = rows[order, _E]
    # first_begin[i]: the earliest begin among rows ending at or after ends[i]
    first_begin = np.minimum.accumulate(rows[order, _B][::-1])[::-1]
    lo, hi = int(first_begin[0]), int(ends[-1])
    cuts: list[int] = []
    for k in points:
        if lo >= hi or not lo <= k <= hi:
            continue
        cuts.append(k)
        lo = max(k, int(first_begin[np.searchsorted(ends, k)]))
    return cuts, len(points) - len(cuts)


def split_cpd(
    g: TemporalGraph,
    score: str = "pref",
    *,
    epsilon: float = 10.0,
    min_size: int = 1,
    jump: int = 1,
    gamma: float | None = None,
    scope: str = "predicate",
) -> TransformResult:
    """Split each predicate at the change points of its proximity signature.

    Per predicate: build the signature series, whose neighborhoods at each
    timestamp come from the predicate's own facts valid then (``scope =
    "predicate"``) or from every fact valid then (``"graph"``),
    row-normalize, run bottom-up detection with stop threshold ``epsilon``,
    grid ``min_size`` and ``jump`` and RBF bandwidth ``gamma`` (None: the
    median heuristic per signal), then apply the interior breakpoints left
    to right (each one lands in the rightmost child produced so far).
    Breakpoints falling outside the current child's active span are skipped
    and counted.

    A constant signature leaves its predicate whole.  When ``min_size`` and
    ``jump`` leave no grid point to cut at, no signature is built and the
    report warns.  With ``scope = "predicate"`` and ``score`` in
    ``ZERO_UNLESS_SHARED``, a predicate whose own edges, over all
    timestamps, hold no self-loop and no triangle is left whole unscored: no
    pair it connects can have a common neighbor, so its signature is all 0.
    """
    if score not in PROXIMITY_MEASURES:
        raise ValueError(f"unknown proximity measure {score!r}")
    if scope not in SIGNATURE_SCOPES:
        raise ValueError(f"unknown signature scope {scope!r}")
    check_settings(epsilon, min_size, jump, gamma)
    mg = _MutableTKG(g)
    report = _base_report(
        "split_cpd",
        {
            "score": score,
            "epsilon": epsilon,
            "min_size": min_size,
            "jump": jump,
            "gamma": "median" if gamma is None else gamma,
            "scope": scope,
        },
        g,
    )

    # bottom_up's first grid point, the least multiple of jump >= min_size,
    # must leave min_size stamps after it
    if -(-min_size // jump) * jump > g.num_timestamps - min_size:
        report.warnings.append(f"no cut possible: min_size {min_size} and jump {jump}"
                               f" leave no grid point inside {g.num_timestamps} timestamps")
        return _finish(mg, report)

    # built once here, not cached on g: ~1 MB at 0.1 x Wikidata12k
    slices = StampNeighbors(g.facts, g.num_timestamps) if scope == "graph" else None
    scored = range(g.num_predicates)
    if scope == "predicate" and score in ZERO_UNLESS_SHARED:
        # predicate ids as stamps: an edge's ends share a neighbor among its
        # predicate's edges exactly when common > 0 (in base order, a third faster)
        s, p, o = mg.base[:, 0], mg.base[:, 1], mg.base[:, 2]
        shared = StampNeighbors(np.column_stack((s, p, o, p, p)), g.num_predicates).common(p, s, o)
        scored = distinct_keys(p[shared > 0]).tolist()
    tl = g.time_labels
    for pid in scored:
        rows = mg.base[mg.offsets[pid]:mg.offsets[pid + 1]]
        series = signature_series(rows[:, :5], g.num_timestamps, measure=score, slices=slices)
        if series.matrix.size == 0 or bool(np.all(series.matrix == series.matrix[0])):
            continue
        x = normalize_rows(series.matrix)
        seg = bottom_up(x, epsilon, min_size=min_size, jump=jump, gamma=gamma)
        cuts, skipped = _cpd_cuts(rows, seg.change_points)
        report.skipped_points += skipped
        if not cuts:
            continue
        mg.split_at(pid, cuts)
        report.notes.append(
            f"{g.predicate_labels[pid]}: change points at " + ",".join(tl[k] for k in cuts)
        )
    del slices  # finalize copies every fact; the neighbor arrays can go first
    return _finish(mg, report)


def random_split(g: TemporalGraph, grow: float, seed: int = 0) -> TransformResult:
    """Seeded baseline: split uniformly chosen predicates at uniform points.

    Each step draws a predicate from the current set and a timestamp in its
    active span.  Draws hitting a single-timestamp span are rejected; 100
    consecutive rejections stop the transformation with a warning.
    """
    if not grow > 1:
        raise ValueError("grow must be > 1")
    if seed < 0:  # random.Random seeds with abs(seed): -3 would draw as 3 does
        raise ValueError("seed must be >= 0")
    rng = random.Random(seed)
    mg = _MutableTKG(g)
    target = grow * g.num_predicates
    pool = list(range(g.num_predicates))
    report = _base_report("random_split", {"grow": grow, "seed": seed}, g)
    failures = 0
    while len(mg.live) < target:
        if failures >= 100:
            report.warnings.append(
                f"stopped after 100 consecutive unsplittable draws"
                f" at {len(mg.live)} predicates (target {target:g})"
            )
            break
        i = rng.randrange(len(pool))
        span = _splittable_span(mg.rows(pool[i]))
        if span is None:
            failures += 1
            continue
        pool[i], right = mg.split_at(pool[i], [rng.randint(*span)])
        pool.append(right)
        failures = 0
    return _finish(mg, report)


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def merge(g: TemporalGraph, shrink: float) -> TransformResult:
    """Timestamp the graph, then fuse adjacent stamped predicates.

    Candidates are chronologically adjacent predicates of the same source;
    the pair with the fewest combined facts merges first (ties: earlier
    stamp, then lower source id).  Stops once the predicate count drops to
    the timestamped count divided by ``shrink``; ``shrink=inf`` merges all
    the way back to one predicate per source.

    The heap needs no tie counter: one source's live predicates have
    distinct begins, so no two live pairs tie on (facts, begin, source),
    and a stale entry that ties with a live one is skipped when it pops.
    """
    if not shrink > 1:
        raise ValueError("shrink must be > 1")
    mg = _MutableTKG(g)
    stamped = _timestamp_into(mg)
    m_ts = len(mg.live)
    target = m_ts / shrink
    report = _base_report("merge", {"shrink": shrink}, g)
    report.notes.append(f"timestamped predicates: {m_ts}")

    # fact count, and the live neighbours in the source's chain, per predicate
    facts = {dp: n for _, dp, n in stamped}
    before: dict[int, int] = {}
    after: dict[int, int] = {}
    heap = []
    for (src, a, n), (next_src, b, m) in zip(stamped, stamped[1:]):
        if src == next_src:
            after[a], before[b] = b, a
            heap.append((n + m, mg.lineage[a][1], src, a, b))
    heapq.heapify(heap)

    tl = g.time_labels
    while len(mg.live) > target and heap:
        n, begin, src, a, b = heapq.heappop(heap)
        # both alive means still adjacent: merging either one kills it
        if a not in mg.live or b not in mg.live:
            continue
        end = mg.lineage[b][2]
        label = f"{g.predicate_labels[src]}~[{tl[begin]},{tl[end]}]"
        dp = mg.new_predicate(label, (src, begin, end, -1))
        mg.live -= {a, b}
        mg.live.add(dp)
        facts[dp] = n
        if a in before:
            p = before[dp] = before[a]
            after[p] = dp
            heapq.heappush(heap, (facts[p] + n, mg.lineage[p][1], src, p, dp))
        if b in after:
            q = after[dp] = after[b]
            before[q] = dp
            heapq.heappush(heap, (n + facts[q], begin, src, dp, q))
        report.merge_trace.append(f"{mg.labels[a]} + {mg.labels[b]} -> {label}")
    # the heap holds every pair of adjacent live predicates, so it runs out
    # only once each source is down to one
    if len(mg.live) > target:
        report.notes.append("fully merged: one predicate per source")
    return _finish(mg, report)


# ---------------------------------------------------------------------------
# lineage persistence
# ---------------------------------------------------------------------------

def save_lineage(g: TemporalGraph, lineage: Lineage, path: str | Path) -> None:
    """Write the lineage sidecar of ``g``, the output graph: derived,
    source, begin, end[, stamp]."""
    tl, sources = g.time_labels, lineage.source_labels
    text = "\n".join(
        "\t".join((label, sources[src], tl[b], tl[e]) + (() if t < 0 else (tl[t],)))
        for label, src, b, e, t in zip(g.predicate_labels, *(a.tolist() for a in lineage[:4]))
    )
    Path(path).write_text(text + "\n" if text else "", encoding="utf-8")

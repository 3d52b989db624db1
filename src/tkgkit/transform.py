"""Graph transformations that move temporal scope into the predicate set.

Each transformation consumes a :class:`~tkgkit.graph.TemporalGraph` and
produces a new graph over the same entities and timestamps, a lineage that
maps every derived predicate back to its source plus a validity interval,
and a report of what happened.  Available rewrites:

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

import numpy as np

from .cpd import CpdConfig, bottom_up, normalize_rows
from .graph import TemporalGraph, expand_ranges, group_rows
from .proximity import (
    PROXIMITY_MEASURES,
    SIGNATURE_SCOPES,
    ZERO_UNLESS_SHARED,
    can_share_neighbors,
    signature_series,
    stamp_neighborhoods,
)

SPLIT_METHODS = ("time", "count")

# a predicate bucket is an int64 array of rows (s, p, o, b, e, split); the p
# column keeps the input predicate until finalize numbers the output ones
_B, _E = 3, 4
_NO_ROWS = np.empty((0, 6), dtype=np.int64)


@dataclass(frozen=True)
class LineageEntry:
    """Provenance of one derived predicate.

    ``source`` is the original predicate's label, ``begin``/``end`` the
    validity interval (time ids, inclusive), ``stamp`` the single timestamp
    for timestamp-derived predicates.
    """

    source: str
    begin: int
    end: int
    stamp: int | None = None


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
    lineage: dict[int, LineageEntry]
    report: TransformReport


def _root_lineage(g: TemporalGraph) -> dict[int, LineageEntry]:
    """Every predicate of ``g`` as its own source over the whole timeline."""
    last = g.num_timestamps - 1
    return {p: LineageEntry(label, 0, last) for p, label in enumerate(g.predicate_labels)}


class _MutableTKG:
    """Working copy of a graph while a transformation runs.

    One record per predicate id: its label in ``labels``, its provenance in
    ``lineage`` and, while it is live, its rows in ``buckets``.  A predicate
    reaches the output exactly while it has a bucket; ``new_predicate``
    gives a new id past the input vocabulary a label and an entry, and the
    caller gives it its rows.  Sources are carried as labels, so a child
    cut again still names the input predicate it came from.
    ``split_points`` records every cut ``split_at`` makes.
    """

    def __init__(self, g: TemporalGraph):
        self.g = g
        self.labels: list[str] = list(g.predicate_labels)
        self._used: set[str] = set(self.labels)
        rows = np.column_stack((g.facts, g.splits))
        self.buckets = dict(enumerate(group_rows(rows, rows[:, 1], range(g.num_predicates))))
        self.lineage = _root_lineage(g)
        self.split_points: list[tuple[str, str]] = []
        self._ordinal: dict[str, int] = defaultdict(int)

    def new_predicate(self, label: str, entry: LineageEntry) -> int:
        while label in self._used:
            label += "'"
        pid = len(self.labels)
        self.labels.append(label)
        self._used.add(label)
        self.lineage[pid] = entry
        return pid

    def count(self, pid: int) -> int:
        return len(self.buckets[pid])

    def span(self, pid: int) -> tuple[int, int] | None:
        """Active span: earliest begin and latest end over the facts."""
        rows = self.buckets[pid]
        if not len(rows):
            return None
        return int(rows[:, _B].min()), int(rows[:, _E].max())

    def split_once(self, pid: int, t: int) -> tuple[int, int]:
        """Replace ``pid`` by two children partitioned at ``t``.

        Facts spanning ``t`` land in both children, cut at ``t``; the rest
        go left or right whole.  ``t`` must lie in the active span.
        """
        span = self.span(pid)
        if span is None:
            raise ValueError(f"predicate {self.labels[pid]!r} has no facts to split")
        if not span[0] <= t <= span[1]:
            raise ValueError(
                f"split point {t} outside active span {span} of {self.labels[pid]!r}"
            )
        return tuple(self.split_at(pid, [t]))

    def split_at(self, pid: int, cuts: list[int]) -> list[int]:
        """Cut ``pid`` at each of one or more increasing timestamps at once.

        The result equals ``split_once`` at each cut in turn, each time on
        the right child of the last one: the same labels, ids and row order.
        Cuts are not checked against the span.  Each cut goes into
        ``split_points`` under the label of the id it replaces: ``pid``, then
        each right child the next cut replaces, which gets no bucket but
        keeps its label taken.  Returns the children in time order.
        """
        ent = self.lineage[pid]
        src, lo, hi = ent.source, ent.begin, ent.end
        tl = self.g.time_labels
        cut = pid
        children = []
        for t in cuts:
            self.split_points.append((self.labels[cut], tl[t]))
            n = self._ordinal[src]
            self._ordinal[src] = n + 2
            left = f"{src}#{n + 1}[{tl[lo]},{tl[t]}]"
            right = f"{src}#{n + 2}[{tl[t]},{tl[hi]}]"
            children.append(self.new_predicate(left, LineageEntry(src, lo, t)))
            cut = self.new_predicate(right, LineageEntry(src, t, hi))
            lo = t
        children.append(cut)
        # a row goes to every child from the one holding b to the one holding
        # e, clipped to the cuts around that child: whole when no cut falls
        # inside [b, e], else cut at each of them
        rows = self.buckets.pop(pid)
        at = np.asarray(cuts)
        which, child = expand_ranges(
            np.searchsorted(at, rows[:, _B], side="left"),
            np.searchsorted(at, rows[:, _E], side="right"),
        )
        floor = np.concatenate(([0], at))
        ceiling = np.concatenate((at, [self.g.num_timestamps]))
        pieces = rows[which]
        pieces[:, _B] = np.maximum(pieces[:, _B], floor[child])
        pieces[:, _E] = np.minimum(pieces[:, _E], ceiling[child])
        for c, block in zip(children, group_rows(pieces, child, range(len(children)))):
            self.buckets[c] = block
        return children

    def finalize(self) -> tuple[TemporalGraph, dict[int, LineageEntry]]:
        """Compact live predicates into a fresh graph plus its lineage."""
        order = sorted(self.buckets)
        blocks = [self.buckets[pid] for pid in order]
        rows = np.concatenate([_NO_ROWS, *blocks])
        rows[:, 1] = np.repeat(np.arange(len(order)), [len(b) for b in blocks])
        graph = TemporalGraph(
            facts=rows[:, :5],
            splits=rows[:, 5],
            entity_labels=self.g.entity_labels,
            predicate_labels=tuple(self.labels[pid] for pid in order),
            time_labels=self.g.time_labels,
        )
        return graph, {new_pid: self.lineage[pid] for new_pid, pid in enumerate(order)}


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
    return TransformResult(graph=g, lineage=_root_lineage(g), report=_base_report("none", {}, g))


# ---------------------------------------------------------------------------
# timestamping
# ---------------------------------------------------------------------------

def _timestamp_into(mg: _MutableTKG) -> dict[int, list[int]]:
    """Expand every fact into per-timestamp facts under stamped predicates.

    Returns, per source predicate id with facts, the stamped children in
    chronological order.
    """
    g = mg.g
    children: dict[int, list[int]] = {}
    for pid in range(g.num_predicates):
        rows = mg.buckets.pop(pid)
        if not len(rows):
            continue
        label = g.predicate_labels[pid]
        which, t = expand_ranges(rows[:, _B], rows[:, _E])
        rows = rows[which]
        rows[:, _B] = rows[:, _E] = t
        # stamped ids in order of first use, fact by fact and then in time
        stamps, first = np.unique(t, return_index=True)
        dp = {
            k: mg.new_predicate(f"{label}@{g.time_labels[k]}", LineageEntry(label, k, k, k))
            for k in stamps[np.argsort(first)].tolist()
        }
        stamps = stamps.tolist()
        children[pid] = [dp[k] for k in stamps]
        for c, block in zip(children[pid], group_rows(rows, t, stamps)):
            mg.buckets[c] = block
    return children


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

def _midpoint_split(mg: _MutableTKG, pid: int) -> int | None:
    span = mg.span(pid)
    if span is None or span[0] >= span[1]:
        return None
    return (span[0] + span[1]) // 2


def _balanced_split(mg: _MutableTKG, pid: int) -> int | None:
    """Timestamp minimizing |#facts ending by t - #facts starting from t|.

    Only timestamps leaving both sides nonempty qualify; ties take the
    earliest timestamp.  Returns None when no qualifying timestamp exists.
    """
    span = mg.span(pid)
    if span is None or span[0] >= span[1]:
        return None
    rows = mg.buckets[pid]
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
    if grow <= 1:
        raise ValueError("grow must be > 1")
    choose = _midpoint_split if method == "time" else _balanced_split
    mg = _MutableTKG(g)
    target = grow * g.num_predicates
    heap: list[tuple[int, int]] = [(-mg.count(p), p) for p in sorted(mg.buckets)]
    heapq.heapify(heap)
    report = _base_report(f"split_{method}", {"grow": grow}, g)
    while len(mg.buckets) < target:
        while heap:
            negc, pid = heapq.heappop(heap)
            if pid in mg.buckets:
                break
        else:
            report.warnings.append(
                f"no splittable predicate left at {len(mg.buckets)} predicates"
                f" (target {target:g})"
            )
            break
        t = choose(mg, pid)
        if t is None:
            continue
        for child in mg.split_once(pid, t):
            heapq.heappush(heap, (-mg.count(child), child))
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
    cfg: CpdConfig | None = None,
    scope: str = "predicate",
) -> TransformResult:
    """Split each predicate at the change points of its proximity signature.

    Per predicate: build the signature series, whose neighborhoods at each
    timestamp come from the predicate's own facts valid then (``scope =
    "predicate"``) or from every fact valid then (``"graph"``),
    row-normalize, run bottom-up detection, then apply the interior
    breakpoints left to right (each one lands in the rightmost child
    produced so far).  Breakpoints falling outside the current child's
    active span are skipped and counted.

    A constant signature leaves its predicate whole.  When ``min_size`` and
    ``jump`` leave no grid point to cut at, no signature is built and the
    report warns.  With ``scope = "predicate"`` and ``score`` in
    ``ZERO_UNLESS_SHARED``, a predicate whose own edges, over all
    timestamps, hold no self-loop and no triangle is left whole before its
    signature is built: no pair it connects can have a common neighbor, so
    the signature would be all zero.  Skipping it does not change the output.
    """
    if score not in PROXIMITY_MEASURES:
        raise ValueError(f"unknown proximity measure {score!r}")
    if scope not in SIGNATURE_SCOPES:
        raise ValueError(f"unknown signature scope {scope!r}")
    cfg = cfg or CpdConfig()
    cfg.validate()
    mg = _MutableTKG(g)
    report = _base_report(
        "split_cpd",
        {
            "score": score,
            "epsilon": cfg.epsilon,
            "min_size": cfg.min_size,
            "jump": cfg.jump,
            "gamma": "median" if cfg.gamma is None else cfg.gamma,
            "scope": scope,
        },
        g,
    )

    # bottom_up's first grid point, the least multiple of jump >= min_size,
    # must leave min_size stamps after it
    if -(-cfg.min_size // cfg.jump) * cfg.jump > g.num_timestamps - cfg.min_size:
        report.warnings.append(f"no cut possible: min_size {cfg.min_size} and jump {cfg.jump}"
                               f" leave no grid point inside {g.num_timestamps} timestamps")
        return _finish(mg, report)

    # built once here, not cached on g.  At 0.1 x Wikidata12k, the neighbor
    # arrays of pref and jaccard hold ~1 MB, adar's per-stamp sets ~10 MB
    slices = stamp_neighborhoods(g.facts, g.num_timestamps, score) if scope == "graph" else None
    zero_unless_shared = scope == "predicate" and score in ZERO_UNLESS_SHARED
    tl = g.time_labels
    for pid in range(g.num_predicates):
        rows = mg.buckets[pid]
        if zero_unless_shared and not can_share_neighbors(
            zip(rows[:, 0].tolist(), rows[:, 2].tolist())
        ):
            continue
        series = signature_series(rows[:, :5], g.num_timestamps, measure=score, slices=slices)
        if series.matrix.size == 0 or bool(np.all(series.matrix == series.matrix[0])):
            continue
        x = normalize_rows(series.matrix)
        seg = bottom_up(x, cfg.epsilon, min_size=cfg.min_size, jump=cfg.jump, gamma=cfg.gamma)
        cuts, skipped = _cpd_cuts(rows, seg.change_points)
        report.skipped_points += skipped
        if not cuts:
            continue
        mg.split_at(pid, cuts)
        report.notes.append(
            f"{g.predicate_labels[pid]}: change points at " + ",".join(tl[k] for k in cuts)
        )
    del slices  # finalize copies every fact; the indexes can go first
    return _finish(mg, report)


def random_split(g: TemporalGraph, grow: float, seed: int = 0) -> TransformResult:
    """Seeded baseline: split uniformly chosen predicates at uniform points.

    Each step draws a predicate from the current set and a timestamp in its
    active span.  Draws hitting a single-timestamp span are rejected; 100
    consecutive rejections stop the transformation with a warning.
    """
    if grow <= 1:
        raise ValueError("grow must be > 1")
    if seed < 0:  # random.Random seeds with abs(seed): -3 would draw as 3 does
        raise ValueError("seed must be >= 0")
    rng = random.Random(seed)
    mg = _MutableTKG(g)
    target = grow * g.num_predicates
    pool = sorted(mg.buckets)
    report = _base_report("random_split", {"grow": grow, "seed": seed}, g)
    failures = 0
    while len(mg.buckets) < target:
        if failures >= 100:
            report.warnings.append(
                f"stopped after 100 consecutive unsplittable draws"
                f" at {len(mg.buckets)} predicates (target {target:g})"
            )
            break
        i = rng.randrange(len(pool))
        span = mg.span(pool[i])
        if span is None or span[0] >= span[1]:
            failures += 1
            continue
        t = rng.randint(span[0], span[1])
        r1, r2 = mg.split_once(pool[i], t)
        pool[i] = r1
        pool.append(r2)
        failures = 0
    return _finish(mg, report)


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

class _MergeNode:
    """A predicate in its source's chain of stamped and merged predicates,
    in time order; alive while ``pid`` has a bucket."""

    __slots__ = ("pid", "src", "prev", "next")

    def __init__(self, pid: int, src: int):
        self.pid = pid
        self.src = src
        self.prev: _MergeNode | None = None
        self.next: _MergeNode | None = None


def merge(g: TemporalGraph, shrink: float) -> TransformResult:
    """Timestamp the graph, then fuse adjacent stamped predicates.

    Candidates are chronologically adjacent predicates of the same source;
    the pair with the fewest combined facts merges first (ties: earlier
    stamp, then lower source id).  Stops once the predicate count drops to
    the timestamped count divided by ``shrink``; ``shrink=inf`` merges all
    the way back to one predicate per source.
    """
    if shrink <= 1:
        raise ValueError("shrink must be > 1")
    mg = _MutableTKG(g)
    children = _timestamp_into(mg)
    m_ts = len(mg.buckets)
    target = m_ts / shrink
    report = _base_report("merge", {"shrink": shrink}, g)
    report.notes.append(f"timestamped predicates: {m_ts}")

    heap: list[tuple[int, int, int, int, _MergeNode, _MergeNode]] = []
    seq = 0

    def push(a: _MergeNode, b: _MergeNode) -> None:
        nonlocal seq
        total = mg.count(a.pid) + mg.count(b.pid)
        heap.append((total, mg.lineage[a.pid].begin, a.src, seq, a, b))
        seq += 1

    for src, stamped in children.items():
        prev: _MergeNode | None = None
        for dp in stamped:
            node = _MergeNode(dp, src)
            if prev is not None:
                prev.next = node
                node.prev = prev
                push(prev, node)
            prev = node
    heapq.heapify(heap)

    tl = g.time_labels
    while len(mg.buckets) > target and heap:
        *_, a, b = heapq.heappop(heap)
        # both alive means still adjacent: merging either one kills it
        if a.pid not in mg.buckets or b.pid not in mg.buckets:
            continue
        first, last = mg.lineage[a.pid], mg.lineage[b.pid]
        label = f"{first.source}~[{tl[first.begin]},{tl[last.end]}]"
        dp = mg.new_predicate(label, LineageEntry(first.source, first.begin, last.end))
        mg.buckets[dp] = np.concatenate((mg.buckets.pop(a.pid), mg.buckets.pop(b.pid)))
        node = _MergeNode(dp, a.src)
        node.prev = a.prev
        node.next = b.next
        if node.prev is not None:
            node.prev.next = node
            push(node.prev, node)
        if node.next is not None:
            node.next.prev = node
            push(node, node.next)
        report.merge_trace.append(f"{mg.labels[a.pid]} + {mg.labels[b.pid]} -> {label}")
    if len(mg.buckets) > target:
        if len(mg.buckets) == len(children):
            report.notes.append("fully merged: one predicate per source")
        else:
            report.warnings.append(
                f"no merge candidates left at {len(mg.buckets)} predicates (target {target:g})"
            )
    return _finish(mg, report)


# ---------------------------------------------------------------------------
# lineage persistence
# ---------------------------------------------------------------------------

def save_lineage(
    g: TemporalGraph, lineage: dict[int, LineageEntry], path: str | Path
) -> None:
    """Write the lineage sidecar: derived, source, begin, end[, stamp]."""
    with open(path, "w", encoding="utf-8") as fh:
        for pid in sorted(lineage):
            ent = lineage[pid]
            row = [
                g.predicate_labels[pid],
                ent.source,
                g.time_labels[ent.begin],
                g.time_labels[ent.end],
            ]
            if ent.stamp is not None:
                row.append(g.time_labels[ent.stamp])
            fh.write("\t".join(row) + "\n")

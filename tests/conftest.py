"""Shared fixtures: synthetic datasets on disk, in-memory graphs, and
discovery of the optional benchmark datasets used by the gated tests."""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest

from tkgkit import TemporalGraph, load_dataset

DATASET_NAMES = ("wikidata12k", "yago11k", "icews14")


def find_dataset(name: str) -> Path | None:
    """Locate a benchmark dataset directory, or None if absent.

    Looks under $TKG_DATA_DIR first, then <repo>/data/<name>.  A directory
    counts only if it holds the three split files the loader expects.
    """
    candidates = []
    env = os.environ.get("TKG_DATA_DIR")
    if env:
        candidates.append(Path(env) / name)
    candidates.append(Path(__file__).resolve().parent.parent / "data" / name)
    for c in candidates:
        if all((c / f"{s}.txt").is_file() for s in ("train", "valid", "test")):
            return c
    return None


def require_dataset(name: str) -> Path:
    path = find_dataset(name)
    if path is None:
        pytest.skip(
            f"benchmark dataset {name!r} not available; set TKG_DATA_DIR or "
            f"place train/valid/test.txt under data/{name}/"
        )
    return path


def write_split_files(root: Path, rows: dict[str, list[tuple]]) -> Path:
    """Write tab-separated train/valid/test files from tuples of strings."""
    root.mkdir(parents=True, exist_ok=True)
    for name in ("train", "valid", "test"):
        lines = ["\t".join(str(v) for v in r) for r in rows.get(name, [])]
        (root / f"{name}.txt").write_text("".join(l + "\n" for l in lines))
    return root


def build_graph(
    facts: list[tuple[int, int, int, int, int]],
    splits: list[int] | None = None,
    num_entities: int | None = None,
    num_predicates: int | None = None,
    num_times: int | None = None,
) -> TemporalGraph:
    """Construct a TemporalGraph directly from integer tuples.

    Labels are synthesized (e<i>, r<i>, and the stringified time index), so
    unit tests can state facts without going through the loader.
    """
    ne = num_entities if num_entities is not None else 1 + max((max(f[0], f[2]) for f in facts), default=-1)
    np_ = num_predicates if num_predicates is not None else 1 + max((f[1] for f in facts), default=-1)
    nt = num_times if num_times is not None else 1 + max((f[4] for f in facts), default=-1)
    return TemporalGraph(
        facts=facts,
        splits=list(splits) if splits is not None else [0] * len(facts),
        entity_labels=tuple(f"e{i}" for i in range(ne)),
        predicate_labels=tuple(f"r{i}" for i in range(np_)),
        time_labels=tuple(str(t) for t in range(nt)),
    )


def unroll(g: TemporalGraph, lineage=None):
    """Multiset of (s, source label, o, t, split) over every covered timestamp.

    The timestamp and merge transformations must preserve this exactly;
    splitting preserves the underlying set (boundary facts land in both
    children, so multiplicities at split points may grow).
    """
    from collections import Counter

    out: Counter = Counter()
    for (s, p, o, b, e), sp in zip(g.facts.tolist(), g.splits.tolist()):
        src = g.predicate_labels[p] if lineage is None else lineage.source_labels[lineage.source[p]]
        for t in range(b, e + 1):
            out[(s, src, o, t, sp)] += 1
    return out


# The set-based proximity scorers, as tkgkit first scored every measure:
# the references score on per-stamp NeighborIndex sets with these, so none
# of them calls the array code they check.  adamic_adar adds its terms in
# increasing neighbour id, as the arrays do, not in set iteration order,
# which depends on the order the edges were added.


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
    for z in sorted(index.neighbors(u) & index.neighbors(v)):
        dz = index.degree(z)
        if dz > 1:
            total += 1.0 / math.log(dz)
    return total


def pref_attachment(index: NeighborIndex, u: int, v: int) -> float:
    """deg(u) * deg(v)."""
    return float(index.degree(u) * index.degree(v))


SET_MEASURES = {"jaccard": jaccard, "adar": adamic_adar, "pref": pref_attachment}


def reference_signature(g, predicate, measure, scope):
    """signature_series as first written: every call buckets the scope's
    facts per timestamp and builds each active timestamp's index anew."""
    score = SET_MEASURES[measure]
    mine = g.facts[g.facts[:, 1] == predicate].tolist()
    pairs = sorted({(min(s, o), max(s, o)) for s, _, o, _, _ in mine})
    n_t = g.num_timestamps
    matrix = np.zeros((n_t, len(pairs)), dtype=np.float64)
    if not pairs:
        return matrix
    col = {pq: j for j, pq in enumerate(pairs)}
    active = [set() for _ in range(n_t)]
    for s, _, o, b, e in mine:
        pq = (min(s, o), max(s, o))
        for t in range(b, e + 1):
            active[t].add(pq)
    pool = mine if scope == "predicate" else g.facts.tolist()
    edges = [[] for _ in range(n_t)]
    for s, _, o, b, e in pool:
        for t in range(b, e + 1):
            edges[t].append((s, o))
    for t in range(n_t):
        if not active[t]:
            continue
        index = NeighborIndex(edges[t])
        for u, v in active[t]:
            matrix[t, col[(u, v)]] = score(index, u, v)
    return matrix


def densify(grad, like):
    """A gradient that batch_gradients returned, as a dense array shaped like ``like``."""
    if not isinstance(grad, tuple):
        return grad
    rows, sums = grad
    dense = np.zeros_like(like)
    dense[rows] = sums
    return dense


@pytest.fixture
def tiny_rows() -> dict[str, list[tuple]]:
    return {
        "train": [
            ("a", "r", "b", "2000", "2004"),
            ("a", "r", "c", "2005", "2009"),
            ("b", "q", "c", "2000", "2009"),
            ("c", "q", "a", "2003", "2003"),
            ("c", "r", "b", "2001", "2006"),
        ],
        "valid": [("a", "q", "b", "2001", "2002")],
        "test": [("b", "q", "a", "2007", "2008")],
    }


@pytest.fixture
def tiny_dataset(tmp_path, tiny_rows) -> Path:
    return write_split_files(tmp_path / "tiny", tiny_rows)


@pytest.fixture
def tiny_graph(tiny_dataset) -> TemporalGraph:
    return load_dataset(tiny_dataset)

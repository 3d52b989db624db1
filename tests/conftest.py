"""Shared fixtures: synthetic datasets on disk, in-memory graphs, and
discovery of the optional benchmark datasets used by the gated tests."""

from __future__ import annotations

import os
from pathlib import Path

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
        src = lineage[p].source if lineage is not None else g.predicate_labels[p]
        for t in range(b, e + 1):
            out[(s, src, o, t, sp)] += 1
    return out


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

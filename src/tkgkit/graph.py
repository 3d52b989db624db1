"""Temporal knowledge graph data model, dataset ingestion and slicing.

Facts are quintuples ``(s, p, o, b, e)`` over interned integer identifiers:
entities and predicates are numbered in first-seen order, timestamps in
chronological order.  Event-style quadruples ``(s, p, o, h)`` load as
quintuples with b = e = h (:func:`to_valid_time`).  A :class:`TemporalGraph`
is treated as immutable after construction; every transformation builds a
new graph.
"""
from __future__ import annotations

import logging
import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import le
from pathlib import Path
from typing import NamedTuple

logger = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "valid", "test")
DATA_FORMATS = ("valid_time", "event")
TRAIN, VALID, TEST = 0, 1, 2

#: Time tokens that always mean "missing"; anything whose year cannot be
#: parsed is treated as missing too (an entirely malformed line is dropped).
DEFAULT_MISSING_TOKENS = frozenset({"", "-", "####", "####-##-##"})

_YEAR_RE = re.compile(r"^\s*(-?\d+)")


class DataError(Exception):
    """Unreadable, empty or structurally inconsistent dataset input."""


class Quintuple(NamedTuple):
    s: int
    p: int
    o: int
    b: int
    e: int


class Quadruple(NamedTuple):
    s: int
    p: int
    o: int
    h: int


class StaticTriple(NamedTuple):
    s: int
    p: int
    o: int


def to_valid_time(q: Quadruple) -> Quintuple:
    """Lift an event quadruple to a valid-time quintuple with b = e = h."""
    return Quintuple(q.s, q.p, q.o, q.h, q.h)


@dataclass
class TemporalGraph:
    """A set of temporally scoped facts plus their interning tables.

    ``facts`` and ``splits`` are parallel: ``splits[i]`` is the train/valid/
    test membership (0/1/2) of ``facts[i]``.  Label tuples double as the id
    spaces: identifier ``k`` names ``*_labels[k]``.  ``time_labels`` is in
    chronological order, so comparing time ids compares timestamps.
    """

    facts: tuple[Quintuple, ...]
    splits: tuple[int, ...]
    entity_labels: tuple[str, ...]
    predicate_labels: tuple[str, ...]
    time_labels: tuple[str, ...]
    _by_predicate: dict[int, list[int]] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.facts) != len(self.splits):
            raise ValueError("facts and splits must be parallel")
        ne, np_, nt = len(self.entity_labels), len(self.predicate_labels), len(self.time_labels)
        for f in self.facts:
            if not (0 <= f.s < ne and 0 <= f.o < ne):
                raise ValueError(f"entity id out of range in {f}")
            if not 0 <= f.p < np_:
                raise ValueError(f"predicate id out of range in {f}")
            if not (0 <= f.b < nt and 0 <= f.e < nt):
                raise ValueError(f"time id out of range in {f}")
            if f.b > f.e:
                raise ValueError(f"begin after end in {f}")

    @property
    def num_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def num_predicates(self) -> int:
        return len(self.predicate_labels)

    @property
    def num_timestamps(self) -> int:
        return len(self.time_labels)

    @property
    def entity_ids(self) -> range:
        return range(len(self.entity_labels))

    @property
    def predicate_ids(self) -> range:
        return range(len(self.predicate_labels))

    @property
    def time_ids(self) -> range:
        return range(len(self.time_labels))

    def by_predicate(self) -> dict[int, list[int]]:
        """Fact indices grouped by predicate (built lazily, then cached)."""
        if self._by_predicate is None:
            idx: dict[int, list[int]] = defaultdict(list)
            for i, f in enumerate(self.facts):
                idx[f.p].append(i)
            self._by_predicate = dict(idx)
        return self._by_predicate

    def split_sizes(self) -> dict[str, int]:
        sizes = dict.fromkeys(SPLIT_NAMES, 0)
        for sp in self.splits:
            sizes[SPLIT_NAMES[sp]] += 1
        return sizes


def slice_at(g: TemporalGraph, t: int) -> TemporalGraph:
    """Facts valid at ``t``, i.e. those with b <= t <= e."""
    if not 0 <= t < g.num_timestamps:
        raise ValueError(f"timestamp id {t} not in graph")
    keep = [i for i, f in enumerate(g.facts) if f.b <= t <= f.e]
    return TemporalGraph(
        facts=tuple(g.facts[i] for i in keep),
        splits=tuple(g.splits[i] for i in keep),
        entity_labels=g.entity_labels,
        predicate_labels=g.predicate_labels,
        time_labels=g.time_labels,
    )


def restrict_predicate(g: TemporalGraph, r: int) -> TemporalGraph:
    """Facts whose predicate is ``r``."""
    if not 0 <= r < g.num_predicates:
        raise ValueError(f"predicate id {r} not in graph")
    keep = g.by_predicate().get(r, [])
    return TemporalGraph(
        facts=tuple(g.facts[i] for i in keep),
        splits=tuple(g.splits[i] for i in keep),
        entity_labels=g.entity_labels,
        predicate_labels=g.predicate_labels,
        time_labels=g.time_labels,
    )


def strip_temporal(g: TemporalGraph) -> dict[str, list[StaticTriple]]:
    """Discard temporal scopes, keeping duplicates and split membership."""
    out: dict[str, list[StaticTriple]] = {name: [] for name in SPLIT_NAMES}
    for f, sp in zip(g.facts, g.splits):
        out[SPLIT_NAMES[sp]].append(StaticTriple(f.s, f.p, f.o))
    return out


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------

@dataclass
class DatasetStats:
    entities: int
    predicates: int
    timestamps: int
    train: int
    valid: int
    test: int


def dataset_stats(g: TemporalGraph) -> DatasetStats:
    sizes = g.split_sizes()
    return DatasetStats(
        entities=g.num_entities,
        predicates=g.num_predicates,
        timestamps=g.num_timestamps,
        train=sizes["train"],
        valid=sizes["valid"],
        test=sizes["test"],
    )


def format_stats(st: DatasetStats) -> str:
    lines = [
        f"{'entities':<12} {st.entities}",
        f"{'predicates':<12} {st.predicates}",
        f"{'timestamps':<12} {st.timestamps}",
        f"{'train':<12} {st.train}",
        f"{'valid':<12} {st.valid}",
        f"{'test':<12} {st.test}",
    ]
    return "\n".join(lines) + "\n"


def _parse_year(token: str, missing_tokens: frozenset[str]) -> int | None:
    if token.strip() in missing_tokens:
        return None
    m = _YEAR_RE.match(token)
    if m is None:
        return None
    return int(m.group(1))


def _read_columns(path: Path, arity: int, what: str) -> list[list[str]]:
    """Read one split file into ``arity`` columns of stripped fields.

    Blank lines are skipped.  Lines with the wrong number of tab-separated
    fields or an empty subject, predicate or object are dropped with a
    logged warning carrying the line number, in line order.  A file left
    with no rows raises DataError.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    tabs = list(map(str.count, lines, repeat("\t")))
    # indices of the lines with the right number of fields, and of the rest
    at: range | list[int] = range(len(lines))
    bad: list[int] = []
    good = lines
    if tabs.count(arity - 1) < len(lines):
        bad = [i for i in at if tabs[i] != arity - 1]
        at = [i for i in at if tabs[i] == arity - 1]
        good = [lines[i] for i in at]
    cols: list[list[str]] = [[] for _ in range(arity)]
    if good:
        fields = list(map(str.strip, "\t".join(good).split("\t")))
        cols = [fields[k::arity] for k in range(arity)]
    if any("" in col for col in cols[:3]):
        keep = ["" not in row for row in zip(*cols[:3])]
        bad.extend(i for i, ok in zip(at, keep) if not ok)
        cols = [list(compress(col, keep)) for col in cols]
    for i in sorted(bad):
        if lines[i].strip():  # blank lines are skipped without a word
            logger.warning("%s:%d: malformed line dropped: %r", path, i + 1, lines[i])
    if not cols[0]:
        raise DataError(f"{path} contains no {what}")
    return cols


def _intern(per_split: list[list[list[str]]]):
    """Subject, predicate and object id columns over all splits, and the
    entity and predicate labels, numbered in first-seen order (subject
    before object)."""
    subjects, predicates, objects = (
        list(chain.from_iterable(cols[k] for cols in per_split)) for k in range(3)
    )
    entities: list[str | None] = [None] * (2 * len(subjects))
    entities[0::2] = subjects
    entities[1::2] = objects
    entity_id = dict(zip(dict.fromkeys(entities), count()))
    predicate_id = dict(zip(dict.fromkeys(predicates), count()))
    ids = (
        map(entity_id.__getitem__, subjects),
        map(predicate_id.__getitem__, predicates),
        map(entity_id.__getitem__, objects),
    )
    return ids, tuple(entity_id), tuple(predicate_id)


def load_dataset(
    path: str | Path,
    fmt: str = "valid_time",
    missing_tokens: frozenset[str] = DEFAULT_MISSING_TOKENS,
) -> TemporalGraph:
    """Load ``train.txt``/``valid.txt``/``test.txt`` from a dataset directory.

    Valid-time files carry ``s p o begin end`` per line (tab-separated),
    event files ``s p o timestamp``.  Valid-time begin/end fields are parsed
    at year granularity; a missing begin is set to the first timestamp, a
    missing end to the last, and facts whose end precedes their begin are
    removed (a split left empty by that raises DataError).  Event facts
    become quintuples with b = e = h.
    """
    if fmt not in DATA_FORMATS:
        raise ValueError(f"unknown dataset format {fmt!r}")
    root = Path(path)
    arity = 5 if fmt == "valid_time" else 4
    per_split = [_read_columns(root / f"{name}.txt", arity, "facts") for name in SPLIT_NAMES]

    if fmt == "valid_time":
        stamps = set().union(*(cols[k] for cols in per_split for k in (3, 4)))
        year = {tok: _parse_year(tok, missing_tokens) for tok in stamps}
        # a missing begin sorts before every year and a missing end after
        low = {tok: -math.inf if y is None else y for tok, y in year.items()}
        high = {tok: math.inf if y is None else y for tok, y in year.items()}
        n_invalid = 0
        for i, cols in enumerate(per_split):
            keep = list(map(le, map(low.__getitem__, cols[3]), map(high.__getitem__, cols[4])))
            if not all(keep):
                n_invalid += keep.count(False)
                per_split[i] = [list(compress(col, keep)) for col in cols]
        if n_invalid:
            stamps = set().union(*(cols[k] for cols in per_split for k in (3, 4)))
        years = {year[tok] for tok in stamps} - {None}
        if not years:
            raise DataError(f"{root}: no parseable timestamps in any split")
        if n_invalid:
            logger.info("%s: removed %d facts with end before begin", root, n_invalid)
            for name, cols in zip(SPLIT_NAMES, per_split):
                if not cols[0]:
                    raise DataError(
                        f"{root / name}.txt contains no facts once those with end"
                        " before begin are removed"
                    )
        ordered = sorted(years)
        time_id = dict(zip(ordered, count()))
        first, last = 0, len(ordered) - 1
        begin_id = {tok: first if year[tok] is None else time_id[year[tok]] for tok in stamps}
        end_id = {tok: last if year[tok] is None else time_id[year[tok]] for tok in stamps}
        begins = map(begin_id.__getitem__, chain.from_iterable(cols[3] for cols in per_split))
        ends = map(end_id.__getitem__, chain.from_iterable(cols[4] for cols in per_split))
        time_labels = tuple(map(str, ordered))
    else:
        # first-seen order, so equal numeric values sort the same every run;
        # numeric labels sort numerically, anything else lexicographically
        # (ISO dates are lexicographic-chronological)
        tokens = dict.fromkeys(chain.from_iterable(cols[3] for cols in per_split))
        try:
            time_labels = tuple(sorted(tokens, key=int))
        except ValueError:
            time_labels = tuple(sorted(tokens))
        time_id = dict(zip(time_labels, count()))
        begins = ends = list(
            map(time_id.__getitem__, chain.from_iterable(cols[3] for cols in per_split))
        )

    (subjects, predicates, objects), entity_labels, predicate_labels = _intern(per_split)
    facts = zip(subjects, predicates, objects, begins, ends)
    return TemporalGraph(
        facts=tuple(map(Quintuple._make, facts)),
        splits=tuple(chain.from_iterable(
            repeat(i, len(cols[0])) for i, cols in enumerate(per_split)
        )),
        entity_labels=entity_labels,
        predicate_labels=predicate_labels,
        time_labels=time_labels,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_dataset(g: TemporalGraph, out_dir: str | Path) -> None:
    """Write the tab-separated split files plus the interning tables."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    handles = {name: open(root / f"{name}.txt", "w", encoding="utf-8") for name in SPLIT_NAMES}
    try:
        for f, sp in zip(g.facts, g.splits):
            handles[SPLIT_NAMES[sp]].write(
                "\t".join(
                    (
                        g.entity_labels[f.s],
                        g.predicate_labels[f.p],
                        g.entity_labels[f.o],
                        g.time_labels[f.b],
                        g.time_labels[f.e],
                    )
                )
                + "\n"
            )
    finally:
        for h in handles.values():
            h.close()
    _write_table(root / "entities.dict", g.entity_labels)
    _write_table(root / "predicates.dict", g.predicate_labels)
    _write_table(root / "timestamps.dict", g.time_labels)


def _write_table(path: Path, labels: tuple[str, ...]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, label in enumerate(labels):
            fh.write(f"{i}\t{label}\n")


def save_triples(
    triples: dict[str, list[StaticTriple]],
    entity_labels: tuple[str, ...],
    predicate_labels: tuple[str, ...],
    out_dir: str | Path,
) -> None:
    """Write stripped (atemporal) triples in the three-column layout."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    for name in SPLIT_NAMES:
        with open(root / f"{name}.txt", "w", encoding="utf-8") as fh:
            for t in triples.get(name, []):
                fh.write(
                    f"{entity_labels[t.s]}\t{predicate_labels[t.p]}\t{entity_labels[t.o]}\n"
                )
    _write_table(root / "entities.dict", entity_labels)
    _write_table(root / "predicates.dict", predicate_labels)


def load_triples(
    path: str | Path,
) -> tuple[dict[str, list[StaticTriple]], tuple[str, ...], tuple[str, ...]]:
    """Load three-column triple files, interning labels in first-seen order."""
    root = Path(path)
    per_split = [_read_columns(root / f"{name}.txt", 3, "triples") for name in SPLIT_NAMES]
    ids, entity_labels, predicate_labels = _intern(per_split)
    triples = list(map(StaticTriple._make, zip(*ids)))
    out: dict[str, list[StaticTriple]] = {}
    start = 0
    for name, cols in zip(SPLIT_NAMES, per_split):
        out[name] = triples[start:start + len(cols[0])]
        start += len(cols[0])
    return out, entity_labels, predicate_labels

"""Temporal knowledge graph data model and dataset ingestion.

A graph's facts are one int64 array of shape (n, 5) whose columns are
``(s, p, o, b, e)``: subject, predicate, object, and the begin and end of
the validity interval, all interned integer identifiers.  Entities and
predicates are numbered in first-seen order, timestamps in chronological
order.  Event facts ``(s, p, o, h)`` load as rows with b = e = h.  A
parallel int8 array of shape (n,) holds each fact's split (0 train, 1
valid, 2 test).  Stripping time leaves, per split, an int64 (n, 3) array of
``(s, p, o)`` rows.  A :class:`TemporalGraph` is treated as immutable after
construction and holds no derived state, such as per-predicate indexes:
every transformation builds a new graph.  Two array primitives serve the
other modules: ``expand_ranges`` lists each fact at each stamp it spans,
and ``distinct_keys``, for the leakage audit and the proximity signatures,
sorts packed non-negative keys and drops repeats.
"""
from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import le
from pathlib import Path

import numpy as np

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


@dataclass(eq=False)
class TemporalGraph:
    """A set of temporally scoped facts plus their interning tables.

    ``facts`` is an int64 (n, 5) array of ``(s, p, o, b, e)`` rows and
    ``splits`` the parallel int8 (n,) array of train/valid/test membership
    (0/1/2); the constructor converts array-likes to these types.  Label
    tuples double as the id spaces: identifier ``k`` names ``*_labels[k]``.
    ``time_labels`` is in chronological order, so comparing time ids
    compares timestamps.  A label repeated within one tuple is an error.
    Two graphs are equal when their arrays and labels are.
    """

    facts: np.ndarray
    splits: np.ndarray
    entity_labels: tuple[str, ...]
    predicate_labels: tuple[str, ...]
    time_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        facts = np.ascontiguousarray(self.facts, dtype=np.int64)
        splits = np.asarray(self.splits)
        if facts.size == 0:
            facts = facts.reshape(0, 5)
        if facts.ndim != 2 or facts.shape[1] != 5:
            raise ValueError(f"facts must be (n, 5) rows, got shape {facts.shape}")
        if splits.shape != (len(facts),):
            raise ValueError("facts and splits must be parallel")
        for what, labels in (("entity", self.entity_labels),
                             ("predicate", self.predicate_labels), ("time", self.time_labels)):
            if len(set(labels)) < len(labels):
                label = next(x for x, n in Counter(labels).items() if n > 1)
                raise ValueError(f"repeated {what} label {label!r}")
        ne, np_, nt = self.num_entities, self.num_predicates, self.num_timestamps
        bad = (facts < 0) | (facts >= (ne, np_, ne, nt, nt))
        for what, rows in (
            ("split id out of range", (splits < TRAIN) | (splits > TEST)),
            ("entity id out of range", bad[:, 0] | bad[:, 2]),
            ("predicate id out of range", bad[:, 1]),
            ("time id out of range", bad[:, 3] | bad[:, 4]),
            ("begin after end", facts[:, 3] > facts[:, 4]),
        ):
            if rows.any():
                i = int(np.argmax(rows))
                raise ValueError(f"{what} in fact {i} {tuple(facts[i].tolist())},"
                                 f" split {splits[i]}")
        self.facts = facts
        self.splits = splits.astype(np.int8)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (
            np.array_equal(self.facts, other.facts)
            and np.array_equal(self.splits, other.splits)
            and self.entity_labels == other.entity_labels
            and self.predicate_labels == other.predicate_labels
            and self.time_labels == other.time_labels
        )

    @property
    def num_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def num_predicates(self) -> int:
        return len(self.predicate_labels)

    @property
    def num_timestamps(self) -> int:
        return len(self.time_labels)

    def split_sizes(self) -> dict[str, int]:
        return dict(zip(SPLIT_NAMES, np.bincount(self.splits, minlength=3).tolist()))


def strip_temporal(g: TemporalGraph) -> dict[str, np.ndarray]:
    """Discard temporal scopes, keeping duplicates and split membership:
    one int64 (n, 3) array of ``(s, p, o)`` rows per split, in fact order."""
    return {name: g.facts[g.splits == k, :3] for k, name in enumerate(SPLIT_NAMES)}


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every value of the inclusive ranges ``[lo[i], hi[i]]``, range by range
    in increasing order: the range index ``i`` of each value, and the value.
    Over fact rows, ``expand_ranges(b, e)`` lists each fact at each stamp."""
    counts = hi - lo + 1
    which = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return which, lo[which] + np.arange(len(which)) - np.repeat(starts, counts)


def distinct_keys(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` of keys >= 0 by one sort; numpy 2.4's hashing is ~25 x slower."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


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
    return DatasetStats(g.num_entities, g.num_predicates, g.num_timestamps,
                        *g.split_sizes().values())


def format_stats(st: DatasetStats) -> str:
    return "".join(f"{name:<12} {value}\n" for name, value in vars(st).items())


def _parse_year(token: str) -> int | None:
    if token.strip() in DEFAULT_MISSING_TOKENS:
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
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    # read_text turns "\r\n" and "\r" into "\n"; split there only, since
    # str.splitlines also breaks at U+2028, \x1c and other label characters
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
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


def _read_table(path: Path) -> dict[str, int]:
    """A ``.dict`` table read as the split files are: label -> id."""
    numbers, names = _read_columns(path, 2, "labels")
    named = dict(zip(names, count()))
    if numbers != list(map(str, range(len(numbers)))) or len(named) < len(names):
        raise DataError(f"{path}: ids must run 0, 1, ... in order,"
                        " with one distinct label each")
    return named


def _intern(per_split: list[list[list[str]]], tables=()) -> tuple[np.ndarray, tuple, tuple]:
    """An int64 (n, 3) array of subject, predicate and object ids over all
    splits, and the entity and predicate labels: those of the two tables
    given, if any, then the rest numbered in first-seen order (subject
    before object)."""
    subjects, predicates, objects = (
        list(chain.from_iterable(cols[k] for cols in per_split)) for k in range(3)
    )
    entities: list[str | None] = [None] * (2 * len(subjects))
    entities[0::2] = subjects
    entities[1::2] = objects
    entity_id, predicate_id = [_read_table(table) for table in tables] or [{}, {}]
    for named, seen in ((entity_id, entities), (predicate_id, predicates)):
        named.update(zip([x for x in dict.fromkeys(seen) if x not in named], count(len(named))))
    ids = np.column_stack((
        _ids(entity_id, subjects), _ids(predicate_id, predicates), _ids(entity_id, objects)
    ))
    # the labels are fields: copied apart (none holds a tab), they do not
    # keep the other fields' memory resident once that is freed
    return ids, *(tuple("\t".join(x).split("\t")) for x in (entity_id, predicate_id))


def _ids(table: dict, labels) -> np.ndarray:
    return np.fromiter(map(table.__getitem__, labels), dtype=np.int64)


def _event_time_labels(root: Path, tokens: dict[str, None]) -> tuple[str, ...]:
    """The distinct event stamps in time order: numerically, equal values in
    first-seen order, when all are integers; lexicographically, which is
    chronological for ISO dates, when none is.  A mix has no order."""
    numbers: dict[str, int] = {}
    others: list[str] = []
    for tok in tokens:
        try:
            numbers[tok] = int(tok)
        except ValueError:
            others.append(tok)
    if numbers and others:
        raise DataError(f"{root}: event stamps mix integer and non-integer tokens,"
                        f" e.g. {next(iter(numbers))!r} and {others[0]!r}")
    return tuple(sorted(tokens, key=numbers.__getitem__) if numbers else sorted(tokens))


def load_dataset(path: str | Path, fmt: str = "valid_time") -> TemporalGraph:
    """Load ``train.txt``/``valid.txt``/``test.txt`` from a dataset directory.

    Valid-time files carry ``s p o begin end`` per line (tab-separated),
    event files ``s p o timestamp``.  Valid-time begin/end fields are parsed
    at year granularity; a missing begin is set to the first timestamp, a
    missing end to the last, and facts whose end precedes their begin are
    removed (a split left empty by that raises DataError).  Event facts
    become rows with b = e = h; their stamps must be all integers or all
    not.  A directory that also holds the three tables ``save_dataset``
    writes is in its 5-column layout, whatever ``fmt`` says, and takes its
    ids from them, as ``load_triples`` does; a stamp missing from
    ``timestamps.dict`` raises DataError.
    """
    if fmt not in DATA_FORMATS:
        raise ValueError(f"unknown dataset format {fmt!r}")
    root = Path(path)
    tables = [root / name for name in ("entities.dict", "predicates.dict", "timestamps.dict")]
    saved = all(map(Path.is_file, tables))
    arity = 5 if saved or fmt == "valid_time" else 4
    per_split = [_read_columns(root / f"{name}.txt", arity, "facts") for name in SPLIT_NAMES]

    if saved:
        begin_id = end_id = low = high = _read_table(tables[2])
        stamps = set().union(*(cols[k] for cols in per_split for k in range(3, arity)))
        if not stamps <= begin_id.keys():
            raise DataError(f"{tables[2]} lacks stamp {min(stamps - begin_id.keys())!r}")
        time_labels = tuple(begin_id)
    elif fmt == "valid_time":
        stamps = set().union(*(cols[k] for cols in per_split for k in (3, 4)))
        year = {tok: _parse_year(tok) for tok in stamps}
        # a missing begin sorts before every year and a missing end after
        low = {tok: -math.inf if y is None else y for tok, y in year.items()}
        high = {tok: math.inf if y is None else y for tok, y in year.items()}
    else:
        tokens = dict.fromkeys(chain.from_iterable(cols[3] for cols in per_split))
        time_labels = _event_time_labels(root, tokens)
        begin_id = end_id = dict(zip(time_labels, count()))
    n_invalid = 0
    if arity == 5:
        for i, cols in enumerate(per_split):
            keep = list(map(le, map(low.__getitem__, cols[3]), map(high.__getitem__, cols[4])))
            if not all(keep):
                n_invalid += keep.count(False)
                per_split[i] = [list(compress(col, keep)) for col in cols]
    if fmt == "valid_time" and not saved:
        if n_invalid:
            stamps = set().union(*(cols[k] for cols in per_split for k in (3, 4)))
        years = {year[tok] for tok in stamps} - {None}
        if not years:
            raise DataError(f"{root}: no parseable timestamps in any split")
        ordered = sorted(years)
        time_id = dict(zip(ordered, count()))
        first, last = 0, len(ordered) - 1
        begin_id = {tok: first if year[tok] is None else time_id[year[tok]] for tok in stamps}
        end_id = {tok: last if year[tok] is None else time_id[year[tok]] for tok in stamps}
        time_labels = tuple(map(str, ordered))
    if n_invalid:
        logger.info("%s: removed %d facts with end before begin", root, n_invalid)
        for name, cols in zip(SPLIT_NAMES, per_split):
            if not cols[0]:
                raise DataError(
                    f"{root / name}.txt contains no facts once those with end"
                    " before begin are removed"
                )

    begins = _ids(begin_id, chain.from_iterable(cols[3] for cols in per_split))
    ends = _ids(end_id, chain.from_iterable(cols[arity - 1] for cols in per_split))
    ids, entity_labels, predicate_labels = _intern(per_split, tables[:2] if saved else ())
    return TemporalGraph(
        facts=np.column_stack((ids, begins, ends)),
        splits=np.repeat(np.arange(3, dtype=np.int8), [len(cols[0]) for cols in per_split]),
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
    ent, pred, tl = (np.array(labels, dtype=object)
                     for labels in (g.entity_labels, g.predicate_labels, g.time_labels))
    for k, name in enumerate(SPLIT_NAMES):
        s, p, o, b, e = g.facts[g.splits == k].T
        _write_lines(root / f"{name}.txt", ent[s], pred[p], ent[o], tl[b], tl[e])
    _write_table(root / "entities.dict", g.entity_labels)
    _write_table(root / "predicates.dict", g.predicate_labels)
    _write_table(root / "timestamps.dict", g.time_labels)


def _write_lines(path: Path, *columns) -> None:
    """Write one line per row of the label columns, fields tab-separated."""
    text = "\n".join(map("\t".join, zip(*columns)))
    path.write_text(text + "\n" if len(columns[0]) else "", encoding="utf-8")


def _write_table(path: Path, labels: tuple[str, ...]) -> None:
    _write_lines(path, list(map(str, range(len(labels)))), labels)


def save_triples(
    triples: dict[str, np.ndarray],
    entity_labels: tuple[str, ...],
    predicate_labels: tuple[str, ...],
    out_dir: str | Path,
) -> None:
    """Write stripped (atemporal) (n, 3) triple arrays in the three-column
    layout."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    ent, pred = (np.array(labels, dtype=object) for labels in (entity_labels, predicate_labels))
    for name in SPLIT_NAMES:
        s, p, o = triples[name].T
        _write_lines(root / f"{name}.txt", ent[s], pred[p], ent[o])
    _write_table(root / "entities.dict", entity_labels)
    _write_table(root / "predicates.dict", predicate_labels)


def load_triples(
    path: str | Path,
) -> tuple[dict[str, np.ndarray], tuple[str, ...], tuple[str, ...]]:
    """Load three-column triple files into one int64 (n, 3) array per split.

    When the directory holds both ``entities.dict`` and ``predicates.dict``,
    as ``save_triples`` writes it, ids are taken from those tables, and a
    label they lack is numbered after them; otherwise labels are numbered in
    first-seen order.  Tables are read as the split files are; one whose
    ids are not 0, 1, ... in order, with one distinct label each, raises
    DataError.
    """
    root = Path(path)
    per_split = [_read_columns(root / f"{name}.txt", 3, "triples") for name in SPLIT_NAMES]
    tables = [root / "entities.dict", root / "predicates.dict"]
    ids, *labels = _intern(per_split, tables if all(map(Path.is_file, tables)) else ())
    ends = np.cumsum([len(cols[0]) for cols in per_split])
    out = dict(zip(SPLIT_NAMES, np.split(ids, ends[:-1])))
    return out, *labels

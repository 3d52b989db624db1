"""Temporal knowledge graph data model, dataset ingestion and slicing.

Facts are quintuples ``(s, p, o, b, e)`` over interned integer identifiers:
entities and predicates are numbered in first-seen order, timestamps in
chronological order.  Event-style quadruples ``(s, p, o, h)`` are converted
on load via :func:`to_valid_time`.  A :class:`TemporalGraph` is treated as
immutable after construction; every transformation builds a new graph.
"""
from __future__ import annotations

import logging
import re
from collections import defaultdict
from dataclasses import dataclass, field
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


def _read_rows(path: Path, fmt: str) -> list[tuple]:
    """Read one split file; returns (s, p, o, time fields..., lineno) rows.

    Structurally malformed lines (wrong column count, empty core fields) are
    dropped with a logged warning carrying the line number.
    """
    arity = 5 if fmt == "valid_time" else 4
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != arity or not all(p.strip() for p in parts[:3]):
            logger.warning("%s:%d: malformed line dropped: %r", path, lineno, line)
            continue
        rows.append((*[p.strip() for p in parts], lineno))
    if not rows:
        raise DataError(f"{path} contains no facts")
    return rows


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
    removed.  Event facts become quintuples with b = e = h.
    """
    if fmt not in DATA_FORMATS:
        raise ValueError(f"unknown dataset format {fmt!r}")
    root = Path(path)
    per_split = {}
    for name in SPLIT_NAMES:
        per_split[name] = _read_rows(root / f"{name}.txt", fmt)

    entities: dict[str, int] = {}
    predicates: dict[str, int] = {}

    def intern(table: dict[str, int], label: str) -> int:
        if label not in table:
            table[label] = len(table)
        return table[label]

    if fmt == "valid_time":
        parsed = []  # (split_idx, s, p, o, b|None, e|None)
        years: set[int] = set()
        n_invalid = 0
        for split_idx, name in enumerate(SPLIT_NAMES):
            for s, p, o, b_tok, e_tok, lineno in per_split[name]:
                b = _parse_year(b_tok, missing_tokens)
                e = _parse_year(e_tok, missing_tokens)
                if b is not None and e is not None and e < b:
                    n_invalid += 1
                    continue
                parsed.append((split_idx, s, p, o, b, e))
                if b is not None:
                    years.add(b)
                if e is not None:
                    years.add(e)
        if not years:
            raise DataError(f"{root}: no parseable timestamps in any split")
        if n_invalid:
            logger.info("%s: removed %d facts with end before begin", root, n_invalid)
        ordered = sorted(years)
        time_id = {y: i for i, y in enumerate(ordered)}
        first, last = 0, len(ordered) - 1
        facts, splits = [], []
        for split_idx, s, p, o, b, e in parsed:
            facts.append(
                Quintuple(
                    intern(entities, s),
                    intern(predicates, p),
                    intern(entities, o),
                    first if b is None else time_id[b],
                    last if e is None else time_id[e],
                )
            )
            splits.append(split_idx)
        time_labels = tuple(str(y) for y in ordered)
    else:
        parsed_ev = []  # (split_idx, s, p, o, h_token)
        tokens: set[str] = set()
        for split_idx, name in enumerate(SPLIT_NAMES):
            for s, p, o, h_tok, lineno in per_split[name]:
                parsed_ev.append((split_idx, s, p, o, h_tok))
                tokens.add(h_tok)
        # numeric labels sort numerically, anything else lexicographically
        # (ISO dates are lexicographic-chronological)
        try:
            ordered_tok = sorted(tokens, key=int)
        except ValueError:
            ordered_tok = sorted(tokens)
        time_id = {tok: i for i, tok in enumerate(ordered_tok)}
        facts, splits = [], []
        for split_idx, s, p, o, h_tok in parsed_ev:
            quad = Quadruple(
                intern(entities, s),
                intern(predicates, p),
                intern(entities, o),
                time_id[h_tok],
            )
            facts.append(to_valid_time(quad))
            splits.append(split_idx)
        time_labels = tuple(ordered_tok)

    return TemporalGraph(
        facts=tuple(facts),
        splits=tuple(splits),
        entity_labels=tuple(entities),
        predicate_labels=tuple(predicates),
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
    entities: dict[str, int] = {}
    predicates: dict[str, int] = {}

    def intern(table: dict[str, int], label: str) -> int:
        if label not in table:
            table[label] = len(table)
        return table[label]

    out: dict[str, list[StaticTriple]] = {}
    for name in SPLIT_NAMES:
        fp = root / f"{name}.txt"
        try:
            text = fp.read_text(encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read {fp}: {exc}") from exc
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(p.strip() for p in parts):
                logger.warning("%s:%d: malformed line dropped: %r", fp, lineno, line)
                continue
            s, p, o = (x.strip() for x in parts)
            rows.append(StaticTriple(intern(entities, s), intern(predicates, p), intern(entities, o)))
        if not rows:
            raise DataError(f"{fp} contains no triples")
        out[name] = rows
    return out, tuple(entities), tuple(predicates)

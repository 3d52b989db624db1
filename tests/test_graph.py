"""Loader, data model, and persistence round trips."""

from __future__ import annotations

import dataclasses
import logging
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgkit import (
    DataError,
    TemporalGraph,
    dataset_stats,
    load_dataset,
    load_triples,
    save_dataset,
    save_triples,
    strip_temporal,
)
from tkgkit.graph import (
    DATA_FORMATS,
    DEFAULT_MISSING_TOKENS,
    SPLIT_NAMES,
    format_stats,
)

from tkgkit.cli import main
from tkgkit.transform import split_parameterized, timestamp

from conftest import build_graph, write_split_files


def test_tiny_stats(tiny_graph):
    st = dataset_stats(tiny_graph)
    assert st.entities == 3
    assert st.predicates == 2
    assert st.timestamps == 10  # every year 2000-2009 appears as an endpoint
    assert (st.train, st.valid, st.test) == (5, 1, 1)


def test_time_ids_chronological(tiny_graph):
    labels = tiny_graph.time_labels
    assert list(labels) == sorted(labels, key=int)


def test_only_observed_endpoints_interned(tmp_path):
    root = write_split_files(
        tmp_path / "d",
        {
            "train": [("a", "r", "b", "1900", "1950")],
            "valid": [("a", "r", "b", "1900", "1900")],
            "test": [("b", "r", "a", "1950", "1950")],
        },
    )
    g = load_dataset(root)
    assert g.time_labels == ("1900", "1950")  # interior years are not interned


def test_ids_dense(tiny_graph):
    g = tiny_graph
    s, p, o, b, e = g.facts.T.tolist()
    assert set(s) | set(o) == set(range(g.num_entities))
    assert set(p) == set(range(g.num_predicates))
    for begin, end in zip(b, e):
        assert 0 <= begin <= end < g.num_timestamps


def test_missing_begin_and_end_clamped(tmp_path):
    root = write_split_files(
        tmp_path / "d",
        {
            "train": [
                ("a", "r", "b", "####", "1990"),
                ("a", "r", "c", "1970", "-"),
                ("b", "r", "c", "1980", "1985"),
            ],
            "valid": [("a", "r", "b", "1970", "1990")],
            "test": [("b", "r", "a", "1985", "1985")],
        },
    )
    g = load_dataset(root)
    assert g.time_labels == ("1970", "1980", "1985", "1990")
    assert g.facts[0, 3:].tolist() == [0, 3]  # missing begin -> first
    assert g.facts[1, 3:].tolist() == [0, 3]  # missing end -> last


def test_end_before_begin_dropped(tmp_path):
    root = write_split_files(
        tmp_path / "d",
        {
            "train": [("a", "r", "b", "2005", "2001"), ("a", "r", "c", "2001", "2005")],
            "valid": [("a", "r", "b", "2001", "2001")],
            "test": [("b", "r", "a", "2005", "2005")],
        },
    )
    g = load_dataset(root)
    assert dataset_stats(g).train == 1


def test_split_emptied_by_end_before_begin_raises(tmp_path):
    root = write_split_files(
        tmp_path / "d",
        {
            "train": [("a", "r", "b", "2001", "2005")],
            "valid": [("a", "r", "b", "2005", "2001"), ("b", "r", "a", "2003", "2002")],
            "test": [("b", "r", "a", "2005", "2005")],
        },
    )
    with pytest.raises(DataError, match="valid.txt contains no facts"):
        load_dataset(root)


def test_malformed_line_dropped_with_warning(tmp_path, caplog):
    root = tmp_path / "d"
    root.mkdir()
    (root / "train.txt").write_text(
        "a\tr\tb\t2000\t2001\n"
        "only\ttwo\n"
        "\tr\tb\t2000\t2001\n"
        "c\tr\td\t2002\t2003\n"
    )
    (root / "valid.txt").write_text("a\tr\tb\t2000\t2000\n")
    (root / "test.txt").write_text("c\tr\td\t2003\t2003\n")
    with caplog.at_level(logging.WARNING):
        g = load_dataset(root)
    assert dataset_stats(g).train == 2
    dropped = [r for r in caplog.records if "malformed" in r.getMessage()]
    assert len(dropped) == 2
    assert ":2:" in dropped[0].getMessage()  # line number reported


def test_lines_break_at_newline_only(tmp_path, caplog):
    # str.splitlines would also break inside these labels, at U+2028, U+0085,
    # \x0b, \x0c and \x1c-\x1e, and load "Ann" as a malformed line
    labels = [f"Ann{c}Lee" for c in "\u2028\x85\x0b\x0c\x1c\x1d\x1e"]
    root = tmp_path / "d"
    root.mkdir()
    texts = {
        "train": "".join(f"{label}\tmeets\tBob\t2014-01-01\r\n" for label in labels),
        "valid": "Bob\tmeets\tAnn\t2014-01-02\n",
        "test": "Bob\tmeets\tCid\t2014-01-03",
    }
    for name, text in texts.items():
        (root / f"{name}.txt").write_bytes(text.encode("utf-8"))
    with caplog.at_level(logging.WARNING):
        g = load_dataset(root, "event")
    assert not caplog.records
    assert g.split_sizes() == {"train": 7, "valid": 1, "test": 1}
    subjects = [g.entity_labels[s] for s in g.facts[g.splits == 0, 0].tolist()]
    assert subjects == labels


def test_missing_file_raises(tmp_path):
    root = tmp_path / "d"
    root.mkdir()
    (root / "train.txt").write_text("a\tr\tb\t2000\t2001\n")
    with pytest.raises(DataError):
        load_dataset(root)


def test_empty_split_raises(tmp_path):
    root = write_split_files(tmp_path / "d", {"train": [], "valid": [], "test": []})
    with pytest.raises(DataError, match="no facts"):
        load_dataset(root)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_dataset(tmp_path, fmt="interval")


def test_event_format_numeric_sort(tmp_path):
    root = write_split_files(
        tmp_path / "d",
        {
            "train": [("a", "r", "b", "10"), ("a", "r", "c", "2"), ("b", "r", "c", "100")],
            "valid": [("a", "r", "b", "2")],
            "test": [("b", "r", "a", "10")],
        },
    )
    g = load_dataset(root, fmt="event")
    assert g.time_labels == ("2", "10", "100")  # numeric, not lexicographic
    assert g.facts[:, 3].tolist() == g.facts[:, 4].tolist()


def test_event_format_date_sort(tmp_path):
    root = write_split_files(
        tmp_path / "d",
        {
            "train": [("a", "r", "b", "2014-02-01"), ("a", "r", "c", "2014-01-15")],
            "valid": [("a", "r", "b", "2014-01-15")],
            "test": [("b", "r", "a", "2014-02-01")],
        },
    )
    g = load_dataset(root, fmt="event")
    assert g.time_labels == ("2014-01-15", "2014-02-01")


def test_event_format_mixed_stamps_rejected(tmp_path):
    # sorted as text, "9" would come after "11"
    root = write_split_files(
        tmp_path / "d",
        {
            "train": [("a", "r", "b", "9"), ("a", "r", "c", "10"), ("b", "r", "c", "-")],
            "valid": [("a", "r", "b", "11")],
            "test": [("b", "r", "a", "10")],
        },
    )
    with pytest.raises(DataError, match="integer and non-integer.*'9' and '-'"):
        load_dataset(root, fmt="event")
    assert main(["load-stats", "--data", str(root), "--format", "event"]) == 3


def test_constructor_validates_interval():
    with pytest.raises(ValueError):
        build_graph([(0, 0, 1, 3, 2)], num_times=5)
    with pytest.raises(ValueError):
        build_graph([(0, 0, 1, 0, 9)], num_times=5)
    with pytest.raises(ValueError):
        TemporalGraph(
            facts=[(0, 0, 1, 0, 0)],
            splits=[0, 0],
            entity_labels=("a", "b"),
            predicate_labels=("r",),
            time_labels=("0",),
        )


# 258 would pass as 2 once cast to int8
@pytest.mark.parametrize("bad", [-1, 3, 258])
def test_constructor_rejects_unknown_split_ids(bad):
    with pytest.raises(ValueError, match="split id out of range in fact 1"):
        TemporalGraph(
            facts=[(0, 0, 1, 0, 0), (1, 0, 0, 0, 0)],
            splits=[0, bad],
            entity_labels=("a", "b"),
            predicate_labels=("r",),
            time_labels=("0",),
        )


@pytest.mark.parametrize("field", ["entity_labels", "predicate_labels", "time_labels"])
def test_constructor_rejects_repeated_labels(field):
    # two ids under one label cannot be told apart in a .dict table or a
    # lineage source; the error names the label
    labels = {"entity_labels": ("a", "b"), "predicate_labels": ("r", "q"),
              "time_labels": ("0", "1")}
    labels[field] = (labels[field][0], "x", "x")
    what = field.split("_")[0]
    with pytest.raises(ValueError, match=f"repeated {what} label 'x'"):
        TemporalGraph(facts=[(0, 0, 1, 0, 0)], splits=[0], **labels)


def test_constructor_takes_no_derived_state():
    # an index handed in could disagree with the facts: here it files fact 1
    # under predicate 0 and no fact under predicate 1
    with pytest.raises(TypeError):
        TemporalGraph(
            facts=[(0, 0, 1, 0, 0), (1, 1, 0, 0, 0)],
            splits=[0, 0],
            entity_labels=("a", "b"),
            predicate_labels=("r", "q"),
            time_labels=("0",),
            _by_predicate={0: np.array([1]), 1: np.array([], int)},
        )
    assert [f.name for f in dataclasses.fields(TemporalGraph)] == [
        "facts", "splits", "entity_labels", "predicate_labels", "time_labels"
    ]


def test_strip_temporal_keeps_duplicates():
    facts = [(0, 0, 1, 0, 1), (0, 0, 1, 3, 4), (1, 0, 2, 0, 0)]
    g = build_graph(facts, splits=[0, 0, 2])
    out = strip_temporal(g)
    assert out["train"].tolist() == [[0, 0, 1], [0, 0, 1]]
    assert out["valid"].tolist() == []
    assert out["test"].tolist() == [[1, 0, 2]]
    for rows in out.values():
        assert rows.dtype == np.int64 and rows.shape[1:] == (3,)


def test_save_load_dataset_roundtrip(tiny_graph, tmp_path):
    # a saved dataset reloads with the ids of its tables: split_time's
    # predicates are not numbered in first-seen order, and timestamp's ISO
    # event stamps are no years
    events = write_split_files(tmp_path / "events", {
        "train": [("a", "r", "b", "2014-01-05"), ("b", "q", "c", "2014-01-03"),
                  ("c", "r", "a", "2014-02-01")],
        "valid": [("a", "q", "c", "2014-01-05")],
        "test": [("b", "r", "a", "2014-01-03")],
    })
    for k, g in enumerate((
        tiny_graph,
        split_parameterized(tiny_graph, "time", 2).graph,
        timestamp(load_dataset(events, "event")).graph,
    )):
        out = tmp_path / f"saved{k}"
        save_dataset(g, out)
        for name in SPLIT_NAMES:
            assert (out / f"{name}.txt").is_file()
        assert (out / "entities.dict").is_file()
        g2 = load_dataset(out)
        # facts come back grouped by split, in order within each
        order = np.argsort(g.splits, kind="stable")
        assert g2.facts.tolist() == g.facts[order].tolist()
        assert g2.splits.tolist() == g.splits[order].tolist()
        assert g2.entity_labels == g.entity_labels
        assert g2.predicate_labels == g.predicate_labels
        assert g2.time_labels == g.time_labels


def test_save_load_triples_roundtrip(tiny_graph, tmp_path):
    triples = strip_temporal(tiny_graph)
    out = tmp_path / "static"
    save_triples(triples, tiny_graph.entity_labels, tiny_graph.predicate_labels, out)
    loaded, ents, preds = load_triples(out)
    remap_e = {i: ents.index(lbl) for i, lbl in enumerate(tiny_graph.entity_labels)}
    remap_p = {i: preds.index(lbl) for i, lbl in enumerate(tiny_graph.predicate_labels)}
    for name in SPLIT_NAMES:
        want = [[remap_e[s], remap_p[p], remap_e[o]] for s, p, o in triples[name].tolist()]
        assert loaded[name].tolist() == want


def test_load_triples_takes_ids_from_tables(tiny_graph, tmp_path):
    out = tmp_path / "static"
    triples = {name: np.array([[0, 0, 1]]) for name in SPLIT_NAMES}
    save_triples(triples, ("b", "a"), ("r",), out)
    loaded, ents, preds = load_triples(out)
    assert (ents, preds) == (("b", "a"), ("r",))
    assert all(rows.tolist() == [[0, 0, 1]] for rows in loaded.values())
    # a label the tables lack is numbered after them
    (out / "entities.dict").write_text("0\ta\n")
    loaded, ents, _ = load_triples(out)
    assert ents == ("a", "b") and loaded["test"].tolist() == [[1, 0, 0]]
    for bad in ("1\tb\n0\ta\n", "0\tb\n1\tb\n", "0\tb\n2\ta\n", "0 b\n1 a\n", ""):
        (out / "entities.dict").write_text(bad)
        with pytest.raises(DataError, match="entities.dict"):
            load_triples(out)
    # without both tables, labels are numbered in first-seen order
    (out / "predicates.dict").unlink()
    assert load_triples(out)[1] == ("b", "a")
    # load_dataset reads its timestamps.dict by the same rules, and a stamp
    # the table lacks (2009 here) is an error too
    saved = tmp_path / "saved"
    save_dataset(tiny_graph, saved)
    years = [f"{k}\t{2000 + k}\n" for k in range(10)]
    for bad in (years[1::-1] + years[2:], ["0\t2000\n", "1\t2000\n"], years[:1] + years[2:],
                [x.replace("\t", " ") for x in years], [], years[:9]):
        (saved / "timestamps.dict").write_text("".join(bad))
        with pytest.raises(DataError, match="timestamps.dict"):
            load_dataset(saved)


def test_format_stats(tiny_graph):
    text = format_stats(dataset_stats(tiny_graph))
    assert text.splitlines()[0].split() == ["entities", "3"]
    assert len(text.splitlines()) == 6


# ---------------------------------------------------------------------------
# byte reference: the row-by-row loader the column reader replaced
# ---------------------------------------------------------------------------

_ref_logger = logging.getLogger("tkgkit.graph")
_REF_YEAR_RE = re.compile(r"^\s*(-?\d+)")


def _ref_parse_year(token, missing_tokens):
    if token.strip() in missing_tokens:
        return None
    m = _REF_YEAR_RE.match(token)
    if m is None:
        return None
    return int(m.group(1))


def _ref_read_rows(path, fmt):
    arity = 5 if fmt == "valid_time" else 4
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != arity or not all(p.strip() for p in parts[:3]):
            _ref_logger.warning("%s:%d: malformed line dropped: %r", path, lineno, line)
            continue
        rows.append((*[p.strip() for p in parts], lineno))
    if not rows:
        raise DataError(f"{path} contains no facts")
    return rows


def reference_load_dataset(path, fmt="valid_time", missing_tokens=DEFAULT_MISSING_TOKENS):
    """``load_dataset`` as first written: one tuple, regex match and intern
    call per row."""
    root = Path(path)
    per_split = {name: _ref_read_rows(root / f"{name}.txt", fmt) for name in SPLIT_NAMES}
    entities, predicates = {}, {}

    def intern(table, label):
        if label not in table:
            table[label] = len(table)
        return table[label]

    facts, splits = [], []
    if fmt == "valid_time":
        parsed, years, n_invalid = [], set(), 0
        for split_idx, name in enumerate(SPLIT_NAMES):
            for s, p, o, b_tok, e_tok, lineno in per_split[name]:
                b = _ref_parse_year(b_tok, missing_tokens)
                e = _ref_parse_year(e_tok, missing_tokens)
                if b is not None and e is not None and e < b:
                    n_invalid += 1
                    continue
                parsed.append((split_idx, s, p, o, b, e))
                years.update(y for y in (b, e) if y is not None)
        if not years:
            raise DataError(f"{root}: no parseable timestamps in any split")
        if n_invalid:
            _ref_logger.info("%s: removed %d facts with end before begin", root, n_invalid)
        ordered = sorted(years)
        time_id = {y: i for i, y in enumerate(ordered)}
        for split_idx, s, p, o, b, e in parsed:
            facts.append((
                intern(entities, s), intern(predicates, p), intern(entities, o),
                0 if b is None else time_id[b],
                len(ordered) - 1 if e is None else time_id[e],
            ))
            splits.append(split_idx)
        time_labels = tuple(str(y) for y in ordered)
    else:
        parsed_ev, tokens = [], {}
        for split_idx, name in enumerate(SPLIT_NAMES):
            for s, p, o, h_tok, lineno in per_split[name]:
                parsed_ev.append((split_idx, s, p, o, h_tok))
                tokens.setdefault(h_tok, None)
        integers, others = [], []
        for tok in tokens:
            try:
                int(tok)
            except ValueError:
                others.append(tok)
            else:
                integers.append(tok)
        if integers and others:
            raise DataError(
                f"{root}: event stamps mix integer and non-integer tokens,"
                f" e.g. {integers[0]!r} and {others[0]!r}"
            )
        ordered_tok = sorted(tokens, key=int) if integers else sorted(tokens)
        time_id = {tok: i for i, tok in enumerate(ordered_tok)}
        for split_idx, s, p, o, h_tok in parsed_ev:
            h = time_id[h_tok]
            facts.append(
                (intern(entities, s), intern(predicates, p), intern(entities, o), h, h)
            )
            splits.append(split_idx)
        time_labels = tuple(ordered_tok)
    return TemporalGraph(
        facts=tuple(facts),
        splits=tuple(splits),
        entity_labels=tuple(entities),
        predicate_labels=tuple(predicates),
        time_labels=time_labels,
    )


def reference_load_triples(path):
    root = Path(path)
    entities, predicates = {}, {}

    def intern(table, label):
        if label not in table:
            table[label] = len(table)
        return table[label]

    out = {}
    for name in SPLIT_NAMES:
        fp = root / f"{name}.txt"
        try:
            text = fp.read_text(encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read {fp}: {exc}") from exc
        rows = []
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(p.strip() for p in parts):
                _ref_logger.warning("%s:%d: malformed line dropped: %r", fp, lineno, line)
                continue
            s, p, o = (x.strip() for x in parts)
            rows.append([intern(entities, s), intern(predicates, p), intern(entities, o)])
        if not rows:
            raise DataError(f"{fp} contains no triples")
        out[name] = rows
    return out, tuple(entities), tuple(predicates)


def outcome(load, *args):
    """(result or DataError text, ordered (level, message) log records)."""
    records = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda r: records.append((r.levelname, r.getMessage()))
    level = _ref_logger.level
    _ref_logger.addHandler(handler)
    _ref_logger.setLevel(logging.INFO)
    try:
        result = load(*args)
    except DataError as exc:
        result = ("DataError", str(exc))
    finally:
        _ref_logger.removeHandler(handler)
        _ref_logger.setLevel(level)
    return result, records


def write_texts(root: Path, texts: dict[str, str]) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (root / f"{name}.txt").write_bytes(text.encode("utf-8"))
    return root


def assert_loads_as_reference(root: Path, fmt: str | None) -> None:
    """``fmt=None`` compares ``load_triples``, otherwise ``load_dataset``."""
    if fmt is None:
        got, got_log = outcome(load_triples, root)
        if isinstance(got[0], dict):
            got = ({name: rows.tolist() for name, rows in got[0].items()}, *got[1:])
        assert (got, got_log) == outcome(reference_load_triples, root)
        return
    got, got_log = outcome(load_dataset, root, fmt)
    want, want_log = outcome(reference_load_dataset, root, fmt)
    assert got_log == want_log
    if isinstance(want, TemporalGraph) and 0 in want.split_sizes().values():
        # the row loader kept a split that end-before-begin removal emptied
        assert got[0] == "DataError" and "once those with end before begin" in got[1]
    else:
        assert got == want


# every case the loader's line rules name, each file mixing them
EDGE_TEXTS = {
    "valid_time": {
        "train": (
            "a\tr\tb\t1990\t2000\r\n"
            "\tr\tb\t1990\t2000\r\n"           # empty subject, right column count
            "a\tr\tb\t1990\r\n"                # wrong column count
            "\r\n"
            "  \t \t\xa0\t\t\r\n"              # whitespace only, right column count
            " \xa0\r\n"
            " a \t\xa0r\tc\xa0\t####\t-\r\n"   # padded fields, missing begin and end
            "b\tq\t \t2001\t2002\r\n"          # whitespace-only object
            "c\tq\ta\t####-##-##\t\r\n"
            "c\tr\ta\t-12\t1850\r\n"           # negative year
            "d\tr\ta\tabc\t12abc\r\n"          # unparseable begin, year prefix end
            "d\tq\tb\t2001-05-03\t2010\r\n"
            "a\tq\td\t2005\t2001\r\n"          # end before begin
            "a\tr\tb\t1990\t2000\t9\r\n"
            "b\tr\td\t٣\t0\r\n"
        ),
        "valid": "e\tr\ta\t2000\t1990\nb\tr\te\t1990\t2000\n\n",
        "test": "a\tq\tc\t 1990 \t2001",
    },
    "event": {
        "train": (
            "a\tr\tb\t10\n"
            "a\tr\t\t10\n"
            "a\tr\tb\n"
            "\t\t\t\n"
            "\xa0b\xa0\tq\tc\t2\n"
            "c\tq\ta\t100\n"
            "c\tq\ta\t10\textra\n"
            "d\tr\tb\t-3\n"
        ),
        "valid": "b\tr\td\t2\r\n",
        "test": "d\tq\ta\t100\n \n",
    },
}


@pytest.mark.parametrize("fmt", DATA_FORMATS)
def test_loader_matches_reference_on_edge_cases(tmp_path, fmt):
    root = write_texts(tmp_path / "d", EDGE_TEXTS[fmt])
    assert_loads_as_reference(root, fmt)
    got, log = outcome(load_dataset, root, fmt)
    assert isinstance(got, TemporalGraph)
    malformed = [int(m.group(1)) for _, msg in log if (m := re.search(r":(\d+): malformed", msg))]
    assert malformed == sorted(malformed) and len(malformed) >= 3


def test_load_triples_matches_reference_on_edge_cases(tmp_path):
    root = write_texts(tmp_path / "t", {
        "train": "a\tr\tb\n\tr\tb\na\tr\n\n \t \t \nb\xa0\t q\t c \r\nc\tr\ta\tx\nd\tq\ta",
        "valid": "b\tr\td\n a\t\tb\n",
        "test": "e\tq\ta\r\n",
    })
    assert_loads_as_reference(root, None)


def test_loader_matches_reference_on_empty_and_unparseable(tmp_path):
    cases = {
        "empty": {"train": "", "valid": "a\tr\tb\t1\t2\n", "test": "a\tr\tb\t1\t2\n"},
        "blank": {"train": "a\tr\tb\t1\t2\n", "valid": "\n \n", "test": "a\tr\tb\t1\t2\n"},
        "malformed": {"train": "a\tr\tb\t1\t2\n", "valid": "a\tr\tb\t1\t2\n", "test": "x\ty\n"},
        "no years": {name: "a\tr\tb\t-\tabc\n" for name in SPLIT_NAMES},
        "emptied": {"train": "a\tr\tb\t1\t2\n", "valid": "a\tr\tb\t1\t2\n",
                    "test": "a\tr\tb\t5\t2\nb\tr\ta\t9\t3\n"},
    }
    for label, texts in cases.items():
        root = write_texts(tmp_path / label.replace(" ", "_"), texts)
        assert_loads_as_reference(root, "valid_time")
        assert_loads_as_reference(root, None)


LABELS = ["a", "b", "c", "d", "e", " a", "b ", "\xa0c", "d\xa0", "", " ", "x\x1cy", "x\u2028y"]
YEARS = ["1990", "2001", "1850", " 2001", "007", "0", "-12", "-0", "abc", "12abc",
         "2001-05-03", "٣", "-", "####", "####-##-##", "", " "]
NUMERIC_STAMPS = ["1", "2", "10", "-5", "100"]
ISO_STAMPS = ["2014-01-15", "2014-02-01", "2014-12-31", "2013-12-31"]


def split_text(draw, arity, stamps):
    fields = st.one_of(
        st.tuples(*[st.sampled_from(LABELS)] * 3, *[st.sampled_from(stamps)] * (arity - 3)),
        st.lists(st.sampled_from(LABELS + stamps), min_size=1, max_size=arity + 2),
        st.sampled_from([(), ("",) * arity, (" ", "\xa0")]),
    )
    lines = draw(st.lists(fields.map("\t".join), max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def dataset_texts(draw):
    fmt = draw(st.sampled_from([None, *DATA_FORMATS]))
    if fmt == "valid_time":
        arity, stamps = 5, YEARS
    elif fmt == "event":
        arity, stamps = 4, draw(st.sampled_from([NUMERIC_STAMPS, ISO_STAMPS, ISO_STAMPS + ["5"]]))
    else:
        arity, stamps = 3, []
    return fmt, {name: split_text(draw, arity, stamps) for name in SPLIT_NAMES}


@settings(max_examples=200, deadline=None)
@given(dataset_texts())
def test_loader_matches_reference(case):
    fmt, texts = case
    with tempfile.TemporaryDirectory() as tmp:
        assert_loads_as_reference(write_texts(Path(tmp) / "d", texts), fmt)

"""Golden artifact bytes: every transform method on one small seeded dataset.

Each run's artifact tree is hashed and compared with a digest recorded
before the fact store became arrays (``split_cpd_jaccard``'s before
``jaccard`` moved from neighbour sets to arrays), so a refactor that
changes any output byte fails here even when two runs of the new code agree
with each other.
``manifest.json`` and ``model/model.meta.json`` are left out: both carry
the config hash, which covers the temporary paths.

The digests were recorded on x86-64 with numpy 2.4.6.  The model and metric
files hold floats, so a numpy that rounds differently can fail this test
with no fault in tkgkit.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from tkgkit.pipeline import build_config, read_config_file, run_pipeline

from conftest import write_split_files

UNHASHED = ("manifest.json", "model/model.meta.json")

# (transform settings, filter mode, data format) per run
RUNS = {
    "none": ({"method": "none"}, "inter", "valid_time"),
    "timestamp": ({"method": "timestamp"}, "both", "valid_time"),
    "split_time": ({"method": "split_time", "grow": "2"}, "intra", "valid_time"),
    "split_count": ({"method": "split_count", "grow": "2.5"}, "none", "valid_time"),
    "split_cpd": (
        {"method": "split_cpd", "epsilon": "0.5", "score": "pref", "scope": "graph"},
        "both", "valid_time",
    ),
    "split_cpd_jaccard": (
        {"method": "split_cpd", "epsilon": "0.5", "score": "jaccard", "scope": "graph"},
        "inter", "valid_time",
    ),
    "split_cpd_adar": (
        {"method": "split_cpd", "epsilon": "0.5", "score": "adar", "scope": "graph"},
        "inter", "valid_time",
    ),
    "merge": ({"method": "merge", "shrink": "3"}, "inter", "valid_time"),
    "random": ({"method": "random", "grow": "2", "seed": "3"}, "both", "valid_time"),
    "event": (
        {"method": "split_cpd", "epsilon": "0.5", "score": "adar", "scope": "predicate"},
        "intra", "event",
    ),
}

GOLDEN = {
    "none": "2d8d4eef09f542dc38b043fbc4ad11ca1088758f4265e5c2dfff85661fc2a198",
    "timestamp": "f00ce6ab68998e1f0fcd4caa186135b94ff408f0689c674b30c4b873aeb6b73a",
    "split_time": "8cd6193abe1fc4c0e0fcade6815588af591fdeeb7f6c6cda0f8415f97a04ee08",
    "split_count": "4e8a3526ce8cc840e79eb2c43b6734e8e9592e8720934fdcc0e1a904b86f01a8",
    "split_cpd": "df2808b6c9b2a73530b392ca0c299e15e46f1f1e7a496d2b47533f3719e3fa6e",
    "split_cpd_jaccard": "5b043211020c4c42c634dba9bc93e0888d8cbe06eb7de3e2a3b0a45746ef17f4",
    "split_cpd_adar": "d83d23dcd5c3bf26d6335491403bbb350d0608b2ace99a19e38f48eabb1b285e",
    "merge": "fb883fdb0f27b2dad24855d59f0d020f47d38aca85b528103db5ee94b6099392",
    "random": "905c20e1c563213c0c898da05c1136d640b23d5caf2ae2798a8eff66c2950a8e",
    "event": "4fd63405da4372ff5724e11322f89af09f199a621b5b721b541cc7145b74d78b",
}


def _valid_time_rows(rng: random.Random) -> dict[str, list[tuple]]:
    """30 entities, 5 predicates over 2000-2019; predicate r0 moves from one
    group of entities to a hub-centred one in 2010, so CPD has a change to
    find.  Some stamps are missing, some facts end before they begin, and
    triples repeat within and across splits."""
    ents = [f"e{i}" for i in range(30)]
    rows: list[tuple] = []
    for _ in range(220):
        p = rng.randrange(5)
        b = rng.randrange(2000, 2020)
        e = min(2019, b + int(rng.expovariate(1 / 3)))
        if p == 0:
            if b < 2010:
                s, o = rng.sample(ents[:10], 2)
                e = min(e, 2009)
            else:
                s, o = "e10", rng.choice(ents[11:20])
        else:
            s, o = rng.sample(ents, 2)
        btok, etok = str(b), str(e)
        r = rng.random()
        if r < 0.04:
            btok = "-"
        elif r < 0.08:
            etok = "####"
        elif r < 0.10:
            btok, etok = etok, btok if b < e else str(b - 1)
        rows.append((s, f"r{p}", o, btok, etok))
    rows += rows[:12]  # exact repeats for the intra filter
    rng.shuffle(rows)
    train, valid, test = rows[:180], rows[180:206], rows[206:]
    test += [train[i][:3] + (train[i][4], train[i][4]) for i in range(4)]  # leaks
    return {"train": train, "valid": valid, "test": test}


def _event_rows(rng: random.Random) -> dict[str, list[tuple]]:
    """ISO-date events; predicate r0 connects a triangle of hubs whose third
    member changes halfway, so its Adamic-Adar signature is not constant."""
    ents = [f"a{i}" for i in range(24)]
    days = [f"2014-{m:02d}-{d:02d}" for m in range(1, 13) for d in (1, 15)]
    rows: list[tuple] = []
    for k, day in enumerate(days):
        third = "a2" if k < 12 else "a3"
        for s, o in (("a0", "a1"), ("a1", third), (third, "a0")):
            rows.append((s, "r0", o, day))
    for _ in range(160):
        s, o = rng.sample(ents[4:], 2)
        rows.append((s, f"r{rng.randrange(1, 4)}", o, rng.choice(days)))
    rows += rows[-8:]
    rng.shuffle(rows)
    return {"train": rows[:200], "valid": rows[200:220], "test": rows[220:]}


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        rel = p.relative_to(root).as_posix()
        if p.is_file() and rel not in UNHASHED:
            h.update(rel.encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("run", list(RUNS))
def test_artifacts_match_golden_digest(tmp_path, run):
    transform, mode, fmt = RUNS[run]
    rng = random.Random(11)
    rows = _valid_time_rows(rng) if fmt == "valid_time" else _event_rows(rng)
    data = write_split_files(tmp_path / "data", rows)
    sections = {
        "dataset": {"path": str(data), "format": fmt},
        "transform": transform,
        "filter": {"mode": mode},
        "train": {"epochs": "3", "dimension": "8", "batch_size": "16",
                  "negative_samples": "4", "seed": "7"},
        "eval": {"dump_ranks": "true"},
        "output": {"dir": str(tmp_path / "out")},
    }
    ini = tmp_path / "run.ini"
    ini.write_text("".join(
        f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in vals.items())
        for sec, vals in sections.items()
    ))
    cfg = build_config(read_config_file(ini, environ={}))
    run_pipeline(cfg)
    assert _tree_digest(cfg.output.dir) == GOLDEN[run]

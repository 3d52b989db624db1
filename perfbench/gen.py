"""Seeded synthetic temporal KG datasets with the shapes of the paper's benchmarks.

The real Wikidata12k and ICEWS14 files are not shipped, so the benchmark
builds look-alikes: the same numbers of entities, predicates and timestamps
and the same split proportions as ``REFERENCE_STATS`` in
``tests/test_acceptance.py`` (times a ``scale``), with the properties the
pipeline's cost depends on:

* entity and predicate popularity are Zipf-skewed, and every entity
  occurs at least once;
* entities fall into latent clusters and each predicate maps a subject
  cluster to an object cluster, so a translational model has something to
  learn and the filtered MRR is a stable quality number;
* subjects and objects come from disjoint halves of the entities, except
  in the ICEWS14 shape's few hub predicates, which connect a small set of
  major actors in a triangle that changes twice a year; so exactly the hub
  predicates have a nonzero Adamic-Adar signature, and the CPD work is the
  same on every seed;
* each predicate's facts fall into a few time regimes, so its proximity
  signature has change points for the CPD transform to find;
* (s, p, o) triples repeat across stamps and splits, so the leakage audit
  and ``filter = both`` have work to do;
* valid-time facts have year stamps, exponential durations with a mean of
  5 years and some missing-time tokens; event facts have ISO-date stamps.

The same (shape, seed, scale, test size) always gives byte-identical files.
"""
from __future__ import annotations

import datetime
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# entities, predicates, timestamps, train, valid, test -- copied from
# REFERENCE_STATS in tests/test_acceptance.py
REFERENCE_STATS = {
    "wikidata12k": (12554, 24, 70, 32497, 4062, 4062),
    "icews14": (7128, 230, 365, 72826, 8941, 8963),
}
FORMATS = {"wikidata12k": "valid_time", "icews14": "event"}

FIRST_YEAR = 1950
MEAN_DURATION_YEARS = 5.0
MISSING_TOKENS = ("####", "-")
MISSING_SHARE = 0.03          # per time field of a valid-time fact
CLUSTERS = 32
ON_PATTERN_SHARE = 0.8        # base triples whose object follows the cluster map
FACTS_PER_TRIPLE = 0.35       # draws per distinct base triple; sets the leakage
ENTITY_ZIPF = 0.8
PREDICATE_ZIPF = 1.0
# event data is dominated by a few major actors: the most frequent
# predicates connect only them (see _hub_triangles)
HUB_PREDICATES = {"wikidata12k": 0, "icews14": 6}
HUB_ACTORS = 8


@dataclass
class Generated:
    """Generated split rows (tuples of strings) plus their statistics."""

    fmt: str
    rows: dict[str, list[tuple[str, ...]]]
    stats: dict[str, float]


def _zipf_weights(n: int, a: float, rng: np.random.Generator) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** a
    return rng.permutation(w / w.sum())


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), len(cdf) - 1)


def _hub_triangles(rng: np.random.Generator, hubs: np.ndarray, actors: np.ndarray,
                   n_time: int) -> tuple[np.ndarray, ...]:
    """(s, p, o, t) of the hub predicates' facts.

    Each hub predicate closes one triangle of actors on every stamp, and the
    triangle changes at two random cut points.  Its signature rows are then
    constant within each of the three regimes and differ between them, so
    change-point detection does the same work on every seed.
    """
    triangles = np.array(list(itertools.combinations(range(len(actors)), 3)))
    stamps = np.arange(n_time)
    out = []
    for h in hubs:
        c1 = rng.integers(n_time // 6, n_time * 5 // 12)
        c2 = c1 + rng.integers(n_time // 6, n_time * 5 // 12)
        tri = actors[triangles[rng.choice(len(triangles), 3, replace=False)]]
        corners = tri[(stamps >= c1).astype(int) + (stamps >= c2)]
        for a, b in ((0, 1), (1, 2), (0, 2)):
            out.append((corners[:, a], np.full(n_time, h), corners[:, b], stamps))
    if not out:
        return tuple(np.zeros(0, np.int64) for _ in range(4))
    return tuple(np.concatenate(col) for col in zip(*out))


def generate(shape: str, seed: int, scale: float = 1.0, test: int | None = None) -> Generated:
    """Rows for train/valid/test with the given shape, scaled, from ``seed``."""
    if shape not in REFERENCE_STATS:
        raise ValueError(f"unknown shape {shape!r}; expected one of {sorted(REFERENCE_STATS)}")
    n_ent, n_pred, n_time, n_train, n_valid, n_test = REFERENCE_STATS[shape]
    n_ent, n_train, n_valid, n_test = (
        max(2, round(x * scale)) for x in (n_ent, n_train, n_valid, n_test)
    )
    if test is not None:
        n_test = test
    n_facts = n_train + n_valid + n_test
    rng = np.random.default_rng([seed, n_ent, n_facts])

    ent_w = _zipf_weights(n_ent, ENTITY_ZIPF, rng)
    pred_w = _zipf_weights(n_pred, PREDICATE_ZIPF, rng)
    hubs = np.argsort(-pred_w, kind="stable")[:HUB_PREDICATES[shape]]
    actors = np.argsort(-ent_w, kind="stable")[:HUB_ACTORS]
    hs, hp, ho, ht = _hub_triangles(rng, hubs, actors, n_time)
    n_rand = n_facts - len(hp)
    pred_w[hubs] = 0.0
    pred_cdf = np.cumsum(pred_w / pred_w.sum())
    # even clusters hold subjects, odd clusters objects: every predicate but
    # the hub ones is bipartite, so it closes no triangle and its
    # within-predicate Adamic-Adar signal is exactly zero
    cluster = rng.integers(0, CLUSTERS, size=n_ent)
    cluster_map = 2 * rng.integers(0, CLUSTERS // 2, size=(n_pred, CLUSTERS)) + 1
    members = [np.flatnonzero(cluster == c) for c in range(CLUSTERS)]
    member_cdf = [np.cumsum(ent_w[m] / ent_w[m].sum()) for m in members]
    sides = [np.flatnonzero(cluster % 2 == k) for k in (0, 1)]
    side_cdf = [np.cumsum(ent_w[m] / ent_w[m].sum()) for m in sides]

    # distinct base triples; facts are drawn from them with replacement
    n_base = max(1, round(n_rand / FACTS_PER_TRIPLE))
    p = _draw(rng, pred_cdf, n_base)
    s = sides[0][_draw(rng, side_cdf[0], n_base)]
    o = sides[1][_draw(rng, side_cdf[1], n_base)]
    target = cluster_map[p, cluster[s]]
    on_pattern = rng.random(n_base) < ON_PATTERN_SHARE
    for c in range(1, CLUSTERS, 2):
        sel = np.flatnonzero(on_pattern & (target == c))
        if sel.size and members[c].size:
            o[sel] = members[c][_draw(rng, member_cdf[c], sel.size)]

    # per-predicate time regimes: each base triple lives in one of them
    regimes = rng.integers(1, 5, size=n_pred)
    cuts = np.sort(rng.random((n_pred, 4)), axis=1)
    regime = (rng.random(n_base) * regimes[p]).astype(np.int64)
    lo = np.where(regime == 0, 0.0, cuts[p, np.maximum(regime - 1, 0)])
    hi = np.where(regime == regimes[p] - 1, 1.0, cuts[p, np.minimum(regime, 3)])

    pick = rng.integers(0, n_base, size=n_rand)
    u = lo[pick] + (hi[pick] - lo[pick]) * rng.random(n_rand)
    begin = np.minimum((u * n_time).astype(np.int64), n_time - 1)
    fmt = FORMATS[shape]
    if fmt == "valid_time":
        dur = np.floor(rng.exponential(MEAN_DURATION_YEARS, size=n_rand)).astype(np.int64)
        end = np.concatenate([np.minimum(begin + dur, n_time - 1), ht])
        miss_b = np.concatenate([rng.random(n_rand) < MISSING_SHARE, np.zeros(len(ht), bool)])
        miss_e = np.concatenate([rng.random(n_rand) < MISSING_SHARE, np.zeros(len(ht), bool)])
        miss_tok = rng.integers(0, len(MISSING_TOKENS), size=(n_facts, 2))
    # every entity occurs at least once, so the loaded entity count is the
    # reference one: a random fact per entity takes it as subject or object
    rs, ro = s[pick], o[pick]
    for side, col in ((sides[0], rs), (sides[1], ro)):
        col[rng.choice(n_rand, size=len(side), replace=False)] = side
    fs = np.concatenate([rs, hs])
    fp = np.concatenate([p[pick], hp])
    fo = np.concatenate([ro, ho])
    begin = np.concatenate([begin, ht])
    ent_lab = [f"Q{i}" if fmt == "valid_time" else f"E{i}" for i in range(n_ent)]
    pred_lab = [f"P{i}" if fmt == "valid_time" else f"R{i}" for i in range(n_pred)]
    if fmt == "valid_time":
        time_lab = [str(FIRST_YEAR + t) for t in range(n_time)]
    else:
        day0 = datetime.date(2014, 1, 1)
        time_lab = [(day0 + datetime.timedelta(days=t)).isoformat() for t in range(n_time)]

    order = rng.permutation(n_facts)
    bounds = {"train": (0, n_train), "valid": (n_train, n_train + n_valid),
              "test": (n_train + n_valid, n_facts)}
    rows: dict[str, list[tuple[str, ...]]] = {}
    for name, (a, b) in bounds.items():
        out = []
        for i in order[a:b].tolist():
            core = (ent_lab[fs[i]], pred_lab[fp[i]], ent_lab[fo[i]])
            if fmt == "valid_time":
                bt = MISSING_TOKENS[miss_tok[i, 0]] if miss_b[i] else time_lab[begin[i]]
                et = MISSING_TOKENS[miss_tok[i, 1]] if miss_e[i] else time_lab[end[i]]
                out.append((*core, bt, et))
            else:
                out.append((*core, time_lab[begin[i]]))
        rows[name] = out
    return Generated(fmt=fmt, rows=rows, stats=shape_stats(rows))


def shape_stats(rows: dict[str, list[tuple[str, ...]]]) -> dict[str, float]:
    """The six REFERENCE_STATS numbers plus the test-in-train share.

    Counted from the rows alone, the way the loader would see them: missing
    time tokens are not timestamps, and the share is over distinct test
    triples.
    """
    ents, preds, stamps = set(), set(), set()
    for split in rows.values():
        for r in split:
            ents.update((r[0], r[2]))
            preds.add(r[1])
            stamps.update(t for t in r[3:] if t not in MISSING_TOKENS)
    train = {r[:3] for r in rows["train"]}
    test = {r[:3] for r in rows["test"]}
    return {
        "entities": len(ents),
        "predicates": len(preds),
        "timestamps": len(stamps),
        "train": len(rows["train"]),
        "valid": len(rows["valid"]),
        "test": len(rows["test"]),
        "test_in_train_share": len(test & train) / len(test) if test else 0.0,
    }


def write(gen: Generated, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, split in gen.rows.items():
        text = "".join("\t".join(r) + "\n" for r in split)
        (out_dir / f"{name}.txt").write_text(text, encoding="utf-8")


def format_stats(stats: dict[str, float]) -> str:
    parts = [f"{k}={v}" for k, v in stats.items() if k != "test_in_train_share"]
    return " ".join(parts) + f" test_in_train={stats['test_in_train_share']:.4f}"


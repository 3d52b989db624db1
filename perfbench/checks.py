"""Output checks on one pipeline run directory.

Each check returns a list of failure messages; an empty list means the run
passed.  None of them uses tkgkit: the digest reads bytes, and the re-rank
recomputes filtered ranks from the saved model and ``filtered/`` with its
own scoring loop.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# artifacts whose bytes do not depend on where the run lived; model.meta.json
# and manifest.json embed the config hash, which covers the paths
DIGEST_ARTIFACTS = (
    "transformed",
    "lineage.tsv",
    "filtered",
    "model/entity.npy",
    "model/predicate.npy",
    "loss_history.csv",
    "metrics.csv",
)
RERANK_SAMPLE = 48
SPLITS = ("train", "valid", "test")


def artifact_digest(run_dir: Path) -> str:
    """SHA-256 over the path-independent artifacts, names and bytes."""
    h = hashlib.sha256()
    for rel in DIGEST_ARTIFACTS:
        p = run_dir / rel
        files = sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
        for f in files:
            h.update(f.relative_to(run_dir).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def read_metrics(run_dir: Path) -> dict[str, float]:
    rows = (run_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    return {k: float(v) for k, v in (r.split(",") for r in rows)}


def read_stats(run_dir: Path) -> dict[str, int]:
    rows = (run_dir / "stats.txt").read_text(encoding="utf-8").splitlines()
    return {k: int(v) for k, v in (r.split() for r in rows)}


def _ids(path: Path) -> dict[str, int]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        i, label = line.split("\t", 1)
        out[label] = int(i)
    return out


def _triples(run_dir: Path) -> dict[str, list[tuple[int, int, int]]]:
    fdir = run_dir / "filtered"
    ent, pred = _ids(fdir / "entities.dict"), _ids(fdir / "predicates.dict")
    out = {}
    for name in SPLITS:
        rows = []
        for line in (fdir / f"{name}.txt").read_text(encoding="utf-8").splitlines():
            s, p, o = line.split("\t")
            rows.append((ent[s], pred[p], ent[o]))
        out[name] = rows
    return out


def check_queries(run_dir: Path) -> list[str]:
    n_test = len(_triples(run_dir)["test"])
    queries = read_metrics(run_dir)["queries"]
    if queries != 2 * n_test:
        return [f"query count {queries:g} != 2 x filtered test size {n_test}"]
    return []


def check_stats(run_dir: Path, expected: dict[str, float]) -> list[str]:
    got = read_stats(run_dir)
    bad = [f"{k}: loaded {got.get(k)} != generated {v}" for k, v in expected.items()
           if k in ("entities", "predicates", "timestamps", "train", "valid", "test")
           and got.get(k) != v]
    return [f"dataset stats differ from the generator's: {', '.join(bad)}"] if bad else []


def check_metrics(values: dict[str, float]) -> list[str]:
    bad = [f"{k}={v!r} is not finite" for k, v in values.items() if not math.isfinite(v)]
    mrr = values.get("filtered_mrr")
    if mrr is not None and not 0.0 <= mrr <= 1.0:
        bad.append(f"filtered_mrr={mrr!r} outside [0, 1]")
    return bad


def _norm(delta: np.ndarray, norm: str) -> np.ndarray:
    if norm == "l1":
        return np.abs(delta).sum(axis=-1)
    return np.sqrt(np.square(delta).sum(axis=-1))


def rerank(run_dir: Path, sample: int = RERANK_SAMPLE) -> list[str]:
    """Brute-force filtered ranks (mean ties) of evenly spaced test triples,
    compared with the program's ``ranks.tsv``."""
    split = _triples(run_dir)
    known_o: dict[tuple[int, int], set[int]] = {}
    known_s: dict[tuple[int, int], set[int]] = {}
    for rows in split.values():
        for s, p, o in rows:
            known_o.setdefault((s, p), set()).add(o)
            known_s.setdefault((p, o), set()).add(s)
    ent = np.load(run_dir / "model" / "entity.npy")
    rel = np.load(run_dir / "model" / "predicate.npy")
    norm = json.loads((run_dir / "model" / "model.meta.json").read_text())["norm"]
    dumped = {}
    for line in (run_dir / "ranks.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        s, p, o, side, rank = line.split("\t")
        dumped[(int(s), int(p), int(o), side)] = rank
    test = split["test"]
    picks = sorted({int(i) for i in np.linspace(0, len(test) - 1, min(sample, len(test)))})
    failures = []
    for i in picks:
        s, p, o = test[i]
        for side in ("subject", "object"):
            # same association order as the model's scorer, so equal
            # embeddings give bit-equal scores and ties count the same
            if side == "object":
                scores = _norm((ent[s] + rel[p])[None, :] - ent, norm)
                target, others = o, known_o[(s, p)]
            else:
                scores = _norm(ent + (rel[p] - ent[o])[None, :], norm)
                target, others = s, known_s[(p, o)]
            keep = np.ones(len(scores), dtype=bool)
            keep[[e for e in others if e != target]] = False
            kept = scores[keep]
            t = scores[target]
            better = int((kept < t).sum())
            equal = int((kept == t).sum()) - 1
            want = f"{better + equal / 2.0 + 1:g}"
            got = dumped.get((s, p, o, side))
            if got != want:
                failures.append(f"rank of ({s},{p},{o}) {side}: ranks.tsv {got} != brute force {want}")
    return failures

"""Filtered link-prediction evaluation: ranks, MRR, hits@k.

Each test triple yields two queries: replace the subject, replace the
object.  Candidates are all entities; under the filtered protocol every
candidate forming a triple known to be true (train, valid or test) is
removed, except the query triple itself.  The rank of the true answer over
the surviving candidates feeds MRR and hits@k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embed import EmbeddingModel, NumericError
from .transform import LineageEntry

TIE_RULES = ("optimistic", "pessimistic", "mean")
DEFAULT_HITS = (1, 3, 10)


@dataclass
class MetricReport:
    mrr: float
    hits: dict[int, float]
    query_count: int

    def format(self) -> str:
        lines = [f"{'queries':<10} {self.query_count}"]
        lines.append(f"{'mrr':<10} {self.mrr:.4f}")
        for k in sorted(self.hits):
            lines.append(f"{f'hits@{k}':<10} {self.hits[k]:.4f}")
        return "\n".join(lines) + "\n"

    def csv(self) -> str:
        rows = ["metric,value", f"queries,{self.query_count}", f"mrr,{self.mrr:.6f}"]
        for k in sorted(self.hits):
            rows.append(f"hits@{k},{self.hits[k]:.6f}")
        return "\n".join(rows) + "\n"


def rank_queries(
    model: EmbeddingModel,
    test: np.ndarray,
    known: np.ndarray,
    tie_rule: str = "optimistic",
    filtered: bool = True,
) -> np.ndarray:
    """Rank the true entity on both query sides of every test triple.

    ``test`` and ``known`` are (n, 3) arrays of ``(s, p, o)`` rows.
    ``known`` holds all true triples (train, valid, test; duplicates are
    fine); under ``filtered=True`` those candidates are excluded from the
    comparison, keeping only the query triple itself.  Returns a float64
    (n, 2) array: row i holds test triple i's subject-query rank, then its
    object-query rank.  A model with non-finite values raises NumericError:
    NaN scores compare false with everything, which would score MRR 1, 2 or
    inf depending on the tie rule.  So does a target score that overflows
    to inf, which ties with every overflowing candidate.

    Each query scores every entity with one ``score_objects`` or
    ``score_subjects`` call, which works through the entity matrix a row
    block at a time in block-sized scratch that all queries share; scores
    and ranks are those of scoring the whole matrix at once.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}; expected one of {TIE_RULES}")
    model.assert_finite()
    q = np.asarray(test, dtype=np.int64).reshape(-1, 3)
    k = np.asarray(known if filtered else (), dtype=np.int64).reshape(-1, 3)
    drops = zip(
        _known_answers(k[:, 1], k[:, 2], k[:, 0], q[:, 1], q[:, 2]),
        _known_answers(k[:, 0], k[:, 1], k[:, 2], q[:, 0], q[:, 1]),
    )
    buf = model.score_scratch()

    # candidates scoring better than the target, and tied with it (target excluded)
    better = np.zeros((len(q), 2), dtype=np.int64)
    equal = np.zeros((len(q), 2), dtype=np.int64)
    for i, ((s, p, o), side_drops) in enumerate(zip(q.tolist(), drops)):
        for j, drop in enumerate(side_drops):
            if j:
                scores, target = model.score_objects(s, p, out=buf), o
            else:
                scores, target = model.score_subjects(p, o, out=buf), s
            target_score = scores[target]
            if not math.isfinite(target_score):
                raise NumericError(
                    f"score of {(s, p, o)} is {target_score} ({('subject', 'object')[j]}"
                    " query); the model's values are too large to rank"
                )
            # count over all candidates, then take back the filtered ones
            dropped = scores[drop[drop != target]]
            better[i, j] = np.count_nonzero(scores < target_score) - np.count_nonzero(
                dropped < target_score)
            equal[i, j] = np.count_nonzero(scores == target_score) - 1 - np.count_nonzero(
                dropped == target_score)
    if tie_rule == "optimistic":
        return (better + 1).astype(np.float64)
    if tie_rule == "pessimistic":
        return (better + equal + 1).astype(np.float64)
    return better + equal / 2.0 + 1


def _known_answers(a, b, answer, query_a, query_b) -> list[np.ndarray]:
    """The distinct ``answer`` ids of the rows keyed (a, b), for each query key.

    Keys are packed into one int64, ``a * width + b``, with ``width`` above
    every b, so one sort and two ``searchsorted`` calls serve all queries.
    """
    width = int(max(b.max(initial=0), query_b.max(initial=0))) + 1
    keys = a * width + b
    order = np.lexsort((answer, keys))
    keys, answer = keys[order], answer[order]
    # first of each run of equal rows: drops duplicate known triples
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]) | (answer[1:] != answer[:-1])
    keys, answer = keys[first], answer[first]
    query = query_a * width + query_b
    lo = np.searchsorted(keys, query).tolist()
    hi = np.searchsorted(keys, query, side="right").tolist()
    return [answer[i:j] for i, j in zip(lo, hi)]


def metrics(ranks: np.ndarray, ks: tuple[int, ...] = DEFAULT_HITS) -> MetricReport:
    """MRR and hits@k over every rank in ``ranks``, read in row-major order."""
    ranks = np.asarray(ranks, dtype=np.float64).ravel()
    if not ranks.size:
        raise ValueError("no ranks to aggregate")
    return MetricReport(
        mrr=float((1.0 / ranks).mean()),
        hits={k: float((ranks <= k).mean()) for k in ks},
        query_count=ranks.size,
    )


def evaluate(
    model: EmbeddingModel,
    test: np.ndarray,
    known: np.ndarray,
    tie_rule: str = "optimistic",
    ks: tuple[int, ...] = DEFAULT_HITS,
    filtered: bool = True,
) -> tuple[MetricReport, np.ndarray]:
    ranks = rank_queries(model, test, known, tie_rule=tie_rule, filtered=filtered)
    return metrics(ranks, ks), ranks


def ranks_tsv(test: np.ndarray, ranks: np.ndarray) -> str:
    """One line per query: each test triple's subject query, then its object
    query, with ``ranks`` as ``rank_queries`` returns them for ``test``."""
    lines = ["subject\tpredicate\tobject\tside\trank"]
    triples = np.asarray(test, dtype=np.int64).reshape(-1, 3).tolist()
    for (s, p, o), (subject, obj) in zip(triples, ranks.tolist(), strict=True):
        lines.append(f"{s}\t{p}\t{o}\tsubject\t{subject:g}")
        lines.append(f"{s}\t{p}\t{o}\tobject\t{obj:g}")
    return "\n".join(lines) + "\n"


def predict_predicates(
    model: EmbeddingModel,
    lineage: dict[int, LineageEntry],
    query: Sequence[int],
    top: int,
) -> list[str]:
    """Temporally filtered predicate prediction for one query.

    ``query`` is one fact row ``(s, p, o, b, e)``; its predicate is not
    used.  Scores every derived predicate between the query's entities,
    keeps the ``top`` best, drops those whose lineage interval misses
    [b, e] entirely, then maps the survivors to their source predicates,
    deduplicated in best-rank order.
    """
    if top < 1:
        raise ValueError("top must be >= 1")
    s, _, o, b, e = (int(x) for x in query)
    scores = model.score_predicates(s, o)
    order = np.argsort(scores, kind="stable")[:top]
    out: list[str] = []
    seen: set[str] = set()
    for pid in order:
        ent = lineage.get(int(pid))
        if ent is None:
            continue
        if ent.end < b or ent.begin > e:
            continue
        if ent.source not in seen:
            seen.add(ent.source)
            out.append(ent.source)
    return out

"""Filtered link-prediction evaluation: ranks, MRR, hits@k.

Each test triple yields two queries: replace the subject, replace the
object.  Candidates are all entities; under the filtered protocol every
candidate forming a triple known to be true (train, valid or test) is
removed, except the query triple itself.  The rank of the true answer over
the surviving candidates feeds MRR and hits@k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import embed
from .embed import EmbeddingModel, NumericError
from .graph import expand_ranges

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
) -> np.ndarray:
    """Rank the true entity on both query sides of every test triple.

    ``test`` and ``known`` are (n, 3) arrays of ``(s, p, o)`` rows.
    ``known`` holds all true triples (train, valid, test; duplicates are
    fine); those candidates are excluded from the comparison, keeping only
    the query triple itself, so an empty ``known`` gives raw ranks.
    Returns a float64 (n, 2) array: row i holds test triple i's
    subject-query rank, then its object-query rank.  A model with
    non-finite values raises NumericError: NaN scores compare false with
    everything, which would score MRR 1, 2 or inf depending on the tie
    rule.  So does a target score that overflows to inf, which ties with
    every overflowing candidate.

    Queries are scored a block at a time: each block of
    ``max(1, SCORE_BLOCK // N)`` test triples takes one ``score_subjects``
    and one ``score_objects`` call, whose scores are those of scoring each
    query's (N, d) difference matrix at once.  Each block of scores is the
    call's own array, so after reading the targets' scores the block sets
    every filtered candidate and the target itself to ``inf``, which no
    finite target score exceeds or equals, and counts the rest.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}; expected one of {TIE_RULES}")
    model.assert_finite()
    q = np.asarray(test, dtype=np.int64).reshape(-1, 3)
    k = np.asarray(known, dtype=np.int64).reshape(-1, 3)
    # per side, every (query, known answer) pair, in query order
    answers = (
        _known_answers(k[:, 1], k[:, 2], k[:, 0], q[:, 1], q[:, 2]),
        _known_answers(k[:, 0], k[:, 1], k[:, 2], q[:, 0], q[:, 1]),
    )
    block = max(1, embed.SCORE_BLOCK // model.num_entities)

    # candidates scoring better than the target, and tied with it
    better = np.empty((len(q), 2), dtype=np.int64)
    equal = np.empty((len(q), 2), dtype=np.int64)
    for start in range(0, len(q), block):
        s, p, o = q[start:start + block].T
        stop = start + len(s)
        at = np.arange(len(s))
        targets = np.empty((len(s), 2))
        for j, target in enumerate((s, o)):
            scores = model.score_objects(s, p) if j else model.score_subjects(p, o)
            target_score = targets[:, j] = scores[at, target]
            rows, ids = answers[j]
            lo, hi = np.searchsorted(rows, (start, stop))
            scores[rows[lo:hi] - start, ids[lo:hi]] = np.inf
            scores[at, target] = np.inf
            better[start:stop, j] = np.count_nonzero(scores < target_score[:, None], axis=1)
            equal[start:stop, j] = np.count_nonzero(scores == target_score[:, None], axis=1)
        bad = np.flatnonzero(~np.isfinite(targets))
        if bad.size:
            i, j = divmod(int(bad[0]), 2)
            triple = tuple(q[start + i].tolist())
            raise NumericError(
                f"score of {triple} is {targets[i, j]} ({('subject', 'object')[j]}"
                " query); the model's values are too large to rank"
            )
    if tie_rule == "optimistic":
        return (better + 1).astype(np.float64)
    if tie_rule == "pessimistic":
        return (better + equal + 1).astype(np.float64)
    return better + equal / 2.0 + 1


def _known_answers(a, b, answer, query_a, query_b) -> tuple[np.ndarray, np.ndarray]:
    """Each ``answer`` id of the rows keyed (a, b), for each query key: the
    query's index and the id, in query order, once per matching row.

    Keys are packed into one int64, ``a * width + b``, with ``width`` above
    every b, so one sort and two ``searchsorted`` calls serve all queries.
    """
    width = int(max(b.max(initial=0), query_b.max(initial=0))) + 1
    keys = a * width + b
    order = np.argsort(keys)
    keys = keys[order]
    query = query_a * width + query_b
    lo = np.searchsorted(keys, query)
    hi = np.searchsorted(keys, query, side="right")
    rows, at = expand_ranges(lo, hi - 1)
    return rows, answer[order[at]]


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
) -> tuple[MetricReport, np.ndarray]:
    ranks = rank_queries(model, test, known, tie_rule=tie_rule)
    return metrics(ranks, ks), ranks


def ranks_tsv(test: np.ndarray, ranks: np.ndarray) -> str:
    """One line per query: each test triple's subject query, then its object
    query, with ``ranks`` as ``rank_queries`` returns them for ``test``."""
    lines = ["subject\tpredicate\tobject\tside\trank"]
    triples = np.asarray(test, dtype=np.int64).reshape(-1, 3).tolist()
    for (s, p, o), (subject, obj) in zip(triples, ranks.tolist(), strict=True):
        lines.append(f"{s}\t{p}\t{o}\tsubject\t{subject:.15g}")
        lines.append(f"{s}\t{p}\t{o}\tobject\t{obj:.15g}")
    return "\n".join(lines) + "\n"

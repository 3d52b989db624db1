"""Filtered link-prediction evaluation: ranks, MRR, hits@k.

Each test triple yields two queries: replace the subject, replace the
object.  Candidates are all entities; under the filtered protocol every
candidate forming a triple known to be true (train, valid or test) is
removed, except the query triple itself.  The rank of the true answer over
the surviving candidates feeds MRR and hits@k.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .embed import EmbeddingModel
from .graph import Quintuple, StaticTriple
from .transform import LineageEntry

TIE_RULES = ("optimistic", "pessimistic", "mean")
DEFAULT_HITS = (1, 3, 10)


class RankRecord(NamedTuple):
    triple: StaticTriple
    side: str
    rank: float


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


def _rank_from_counts(n_better: int, n_equal: int, tie_rule: str) -> float:
    # n_equal excludes the target itself
    if tie_rule == "optimistic":
        return n_better + 1
    if tie_rule == "pessimistic":
        return n_better + n_equal + 1
    return n_better + n_equal / 2.0 + 1


def rank_queries(
    model: EmbeddingModel,
    test: Iterable[StaticTriple],
    known: Iterable[StaticTriple],
    tie_rule: str = "optimistic",
    filtered: bool = True,
) -> list[RankRecord]:
    """Rank the true entity on both query sides of every test triple.

    ``known`` is the union of all true triples (train, valid, test); under
    ``filtered=True`` those candidates are excluded from the comparison,
    keeping only the query triple itself.  A model with non-finite values
    raises NumericError: NaN scores compare false with everything, which
    would score MRR 1, 2 or inf depending on the tie rule.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}; expected one of {TIE_RULES}")
    model.assert_finite()
    known_objects: dict[tuple[int, int], set[int]] = {}
    known_subjects: dict[tuple[int, int], set[int]] = {}
    if filtered:
        for t in known:
            known_objects.setdefault((t.s, t.p), set()).add(t.o)
            known_subjects.setdefault((t.p, t.o), set()).add(t.s)

    records: list[RankRecord] = []
    for t in test:
        for side in ("subject", "object"):
            if side == "object":
                scores = model.score_objects(t.s, t.p)
                target = t.o
                drop = known_objects.get((t.s, t.p))
            else:
                scores = model.score_subjects(t.p, t.o)
                target = t.s
                drop = known_subjects.get((t.p, t.o))
            target_score = scores[target]
            if drop:
                scores = scores.copy()
                idx = np.fromiter((e for e in drop if e != target), dtype=np.int64)
                if idx.size:
                    scores[idx] = np.inf
            n_better = int((scores < target_score).sum())
            n_equal = int((scores == target_score).sum()) - 1
            records.append(RankRecord(t, side, _rank_from_counts(n_better, n_equal, tie_rule)))
    return records


def metrics(records: list[RankRecord], ks: tuple[int, ...] = DEFAULT_HITS) -> MetricReport:
    if not records:
        raise ValueError("no rank records to aggregate")
    ranks = np.array([r.rank for r in records], dtype=np.float64)
    return MetricReport(
        mrr=float((1.0 / ranks).mean()),
        hits={k: float((ranks <= k).mean()) for k in ks},
        query_count=len(records),
    )


def evaluate(
    model: EmbeddingModel,
    test: Iterable[StaticTriple],
    known: Iterable[StaticTriple],
    tie_rule: str = "optimistic",
    ks: tuple[int, ...] = DEFAULT_HITS,
    filtered: bool = True,
) -> tuple[MetricReport, list[RankRecord]]:
    records = rank_queries(model, test, known, tie_rule=tie_rule, filtered=filtered)
    return metrics(records, ks), records


def ranks_tsv(records: list[RankRecord]) -> str:
    lines = ["subject\tpredicate\tobject\tside\trank"]
    for r in records:
        lines.append(f"{r.triple.s}\t{r.triple.p}\t{r.triple.o}\t{r.side}\t{r.rank:g}")
    return "\n".join(lines) + "\n"


def predict_predicates(
    model: EmbeddingModel,
    lineage: dict[int, LineageEntry],
    query: Quintuple,
    top: int,
) -> list[str]:
    """Temporally filtered predicate prediction for one query.

    Scores every derived predicate between the query's entities, keeps the
    ``top`` best, drops those whose lineage interval misses [query.b,
    query.e] entirely, then maps the survivors to their source predicates,
    deduplicated in best-rank order.
    """
    if top < 1:
        raise ValueError("top must be >= 1")
    scores = model.score_predicates(query.s, query.o)
    order = np.argsort(scores, kind="stable")[:top]
    out: list[str] = []
    seen: set[str] = set()
    for pid in order:
        ent = lineage.get(int(pid))
        if ent is None:
            continue
        if ent.end < query.b or ent.begin > query.e:
            continue
        if ent.source not in seen:
            seen.add(ent.source)
            out.append(ent.source)
    return out

"""Ranking against a brute-force oracle, and metric math."""

from __future__ import annotations

import numpy as np
import pytest

import tkgkit.embed
from tkgkit import EmbeddingModel, NumericError, evaluate, metrics, rank_queries
from tkgkit.eval import TIE_RULES, ranks_tsv

def T(s, p, o):
    return (s, p, o)


def naive_score(model, s, p, o):
    d = model.entity[s] + model.predicate[p] - model.entity[o]
    if model.norm == "l1":
        return float(np.abs(d).sum())
    return float(np.sqrt((d * d).sum()))


def rank_from_counts(n_better, n_equal, tie_rule):
    # n_equal excludes the target itself
    if tie_rule == "optimistic":
        return n_better + 1
    if tie_rule == "pessimistic":
        return n_better + n_equal + 1
    return n_better + n_equal / 2.0 + 1


def brute_force_ranks(model, test, known, tie_rule):
    """Rank by explicit candidate enumeration, one python loop per query:
    a (subject rank, object rank) pair per test triple."""
    known = set(known)
    out = []
    for t in test:
        s, p, o = t
        pair = []
        for side in ("subject", "object"):
            if side == "object":
                cands = [
                    e
                    for e in range(model.num_entities)
                    if e == o or T(s, p, e) not in known
                ]
                scores = {e: naive_score(model, s, p, e) for e in cands}
                target = o
            else:
                cands = [
                    e
                    for e in range(model.num_entities)
                    if e == s or T(e, p, o) not in known
                ]
                scores = {e: naive_score(model, e, p, o) for e in cands}
                target = s
            ts = scores[target]
            better = sum(1 for e in cands if scores[e] < ts)
            equal = sum(1 for e in cands if scores[e] == ts) - 1
            pair.append(rank_from_counts(better, equal, tie_rule))
        out.append(pair)
    return out


def random_case(rng, n_ent=10, n_pred=3, dim=4, ties=False):
    """A random model and triples; ``ties`` makes tie-heavy cases.

    With ``ties``, embeddings are small integers, so many candidates score
    exactly the target's score (filtered ones included), and ``known``
    repeats some of its triples.
    """
    if ties:
        entity = rng.integers(-1, 2, size=(n_ent, dim)).astype(float)
        predicate = rng.integers(-1, 2, size=(n_pred, dim)).astype(float)
    else:
        entity = rng.normal(size=(n_ent, dim))
        predicate = rng.normal(size=(n_pred, dim))
    model = EmbeddingModel(entity=entity, predicate=predicate, norm=rng.choice(["l1", "l2"]))
    def draw(k):
        return [
            T(int(rng.integers(n_ent)), int(rng.integers(n_pred)), int(rng.integers(n_ent)))
            for _ in range(k)
        ]
    test = draw(int(rng.integers(1, 6)))
    known = draw(int(rng.integers(0, 25))) + test
    if ties:
        known += known[::2] + draw(40)
    return model, test, known


@pytest.mark.parametrize("tie_rule", TIE_RULES)
@pytest.mark.parametrize("filtered", [True, False])
def test_rank_queries_matches_bruteforce(tie_rule, filtered, monkeypatch):
    for block in (None, 12, 1, 30):
        # block 12 scores the 10 x 4 entity matrix 3 rows at a time: three
        # full row blocks and a partial one per query; block 1 scores one
        # candidate of one query at a time; block 30 scores three queries
        # at once, 3 candidates at a time, with a partial last tile
        if block is not None:
            monkeypatch.setattr(tkgkit.embed, "SCORE_BLOCK", block)
        rng = np.random.default_rng(123)
        for i in range(60):
            model, test, known = random_case(rng, ties=i >= 30)
            if not filtered:
                known = []
            got = rank_queries(model, test, known, tie_rule=tie_rule)
            want = brute_force_ranks(model, test, known, tie_rule)
            assert got.dtype == np.float64 and got.shape == (len(test), 2)
            assert got.tolist() == want


def whole_matrix_scores(model, side, a, b):
    """Candidate scores as computed before row blocking: one (N, d) difference."""
    if side == "object":
        delta = (model.entity[a] + model.predicate[b])[None, :] - model.entity
    else:
        delta = model.entity + (model.predicate[a] - model.entity[b])[None, :]
    if model.norm == "l1":
        return np.abs(delta).sum(axis=-1)
    return np.sqrt(np.square(delta).sum(axis=-1))


def reference_rank_queries(model, test, known, tie_rule):
    """rank_queries as written before row blocking, one whole-matrix pass a query."""
    test = list(test)
    # each query's known answers, from sets of the known triples
    subjects, objects = {}, {}
    for s, p, o in np.asarray(known, dtype=np.int64).reshape(-1, 3).tolist():
        subjects.setdefault((p, o), set()).add(s)
        objects.setdefault((s, p), set()).add(o)
    drops = [
        tuple(np.array(sorted(answers.get(key, ())), dtype=np.int64)
              for answers, key in ((subjects, (p, o)), (objects, (s, p))))
        for s, p, o in test
    ]
    ranks = []
    for t, side_drops in zip(test, drops):
        s, p, o = t
        pair = []
        for side, drop in zip(("subject", "object"), side_drops):
            if side == "object":
                scores = whole_matrix_scores(model, side, s, p)
                target = o
            else:
                scores = whole_matrix_scores(model, side, p, o)
                target = s
            target_score = scores[target]
            dropped = scores[drop[drop != target]]
            n_better = int(np.count_nonzero(scores < target_score)) - int(
                np.count_nonzero(dropped < target_score))
            n_equal = int(np.count_nonzero(scores == target_score)) - 1 - int(
                np.count_nonzero(dropped == target_score))
            pair.append(rank_from_counts(n_better, n_equal, tie_rule))
        ranks.append(pair)
    return np.array(ranks, dtype=np.float64).reshape(-1, 2)


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("ties", [False, True])
def test_rank_queries_across_real_blocks_match_whole_matrix(norm, ties):
    # 2,000 x 20 (and x 100) entities: more than one real score block, the
    # last one partial; d = 20 sums columns, d = 100 rows
    n_ent = 2000
    for dim in (20, 100):
        assert n_ent * dim > tkgkit.embed.SCORE_BLOCK
        assert n_ent % (tkgkit.embed.SCORE_BLOCK // dim)
        rng = np.random.default_rng(31 + ties)
        model, test, known = random_case(rng, n_ent=n_ent, n_pred=4, dim=dim, ties=ties)
        model.norm = norm
        test += [T(int(rng.integers(n_ent)), int(rng.integers(4)), int(rng.integers(n_ent)))
                 for _ in range(20)]
        known += test
        for s, p, o in test:
            for side, a, b in (("object", s, p), ("subject", p, o)):
                score = model.score_objects if side == "object" else model.score_subjects
                got = score(a, b)
                assert got.tobytes() == whole_matrix_scores(model, side, a, b).tobytes()
        for tie_rule in TIE_RULES:
            for k in (known, ()):
                got = rank_queries(model, test, k, tie_rule=tie_rule)
                want = reference_rank_queries(model, test, k, tie_rule)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, path", [
    (dim, path) for dim in (1, 2, 7, 8, 9, 15, 16, 17, 100, 128, 129, 300)
    for path in ("columns", "rows") if path == "rows" or dim <= 128
])
def test_block_scores_match_numpy_row_sums(dim, path, monkeypatch):
    # scoring by columns adds terms in numpy's pairwise order: this fails
    # if a numpy release changes the order in which sum(axis=-1) adds a row;
    # columns are summed only below ROWS_FROM, so up to 128 terms
    monkeypatch.setattr(tkgkit.embed, "ROWS_FROM", 1 if path == "rows" else 10**9)
    rng = np.random.default_rng(dim)
    n_ent, n_pred = 300, 3

    def draw(rows, scale):
        # magnitudes that vary over six orders within each model
        return rng.normal(size=(rows, dim)) * 10.0 ** rng.uniform(-3, 3, (rows, dim)) * scale

    models = [(draw(n_ent, scale), draw(n_pred, scale))
              for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150)]
    # small integers: many candidates tie exactly
    models.append((rng.integers(-2, 3, size=(n_ent, dim)).astype(float),
                   rng.integers(-2, 3, size=(n_pred, dim)).astype(float)))
    for entity, predicate in models:
        for norm in ("l1", "l2"):
            model = EmbeddingModel(entity=entity, predicate=predicate, norm=norm)
            ents, preds = rng.integers(n_ent, size=5), rng.integers(n_pred, size=5)
            with np.errstate(over="ignore"):
                got = model.score_objects(ents, preds), model.score_subjects(preds, ents)
                one = model.score_objects(int(ents[0]), int(preds[0]))
                want = [np.stack([whole_matrix_scores(model, side, a, b) for a, b in pairs])
                        for side, pairs in (("object", zip(ents, preds)),
                                            ("subject", zip(preds, ents)))]
            for g, w in zip(got, want):
                assert g.shape == (5, n_ent) and g.tobytes() == w.tobytes()
            assert one.shape == (n_ent,) and one.tobytes() == want[0][0].tobytes()


def test_two_records_per_triple():
    rng = np.random.default_rng(1)
    model, test, known = random_case(rng)
    ranks = rank_queries(model, test, known)
    assert ranks.shape == (len(test), 2)
    for k in (known, ()):
        for empty in ([], np.empty((0, 3), dtype=np.int64)):
            ranks = rank_queries(model, empty, k)
            assert ranks.dtype == np.float64 and ranks.shape == (0, 2)


def test_ranks_are_subject_then_object_per_triple():
    # scores are |e_s - e_o|: for (2, 0, 1) entities 0 and 1 beat subject 2
    # and entity 2 beats object 1, with no ties; (0, 0, 0) ranks first twice
    entity = np.array([[0.0], [1.0], [3.0]])
    model = EmbeddingModel(entity=entity, predicate=np.array([[0.0]]), norm="l1")
    for tie_rule in TIE_RULES:
        ranks = rank_queries(model, [T(2, 0, 1), T(0, 0, 0)], [], tie_rule=tie_rule)
        assert ranks.dtype == np.float64 and ranks.shape == (2, 2)
        assert ranks.tolist() == [[3.0, 2.0], [1.0, 1.0]]


def test_tie_rules_on_constant_model():
    # all-zero embeddings make every candidate score identical
    model = EmbeddingModel(entity=np.zeros((6, 3)), predicate=np.zeros((2, 3)))
    test = [T(0, 0, 1)]
    opt = rank_queries(model, test, test, tie_rule="optimistic")
    pes = rank_queries(model, test, test, tie_rule="pessimistic")
    mean = rank_queries(model, test, test, tie_rule="mean")
    assert opt.tolist() == [[1, 1]]
    assert pes.tolist() == [[6, 6]]
    assert mean.tolist() == [[3.5, 3.5]]


def test_filtering_never_hurts_rank():
    rng = np.random.default_rng(9)
    for _ in range(10):
        model, test, known = random_case(rng)
        raw = rank_queries(model, test, ())
        filt = rank_queries(model, test, known)
        assert (filt <= raw).all()


def test_filtering_removes_known_competitors():
    # entity 2 scores best for (0, 0, ?) but is a known object: filtered
    # ranking must ignore it
    entity = np.array([[0.0], [1.0], [0.0], [5.0]])
    predicate = np.array([[0.0]])
    model = EmbeddingModel(entity=entity, predicate=predicate, norm="l1")
    test = [T(0, 0, 1)]
    known = [T(0, 0, 2)] + test
    raw = rank_queries(model, test, ())
    filt = rank_queries(model, test, known)
    assert raw[0, 1] == 3  # loses to entities 0 and 2
    assert filt[0, 1] == 2  # entity 2 is filtered out; entity 0 remains


def test_target_itself_never_filtered():
    model = EmbeddingModel(entity=np.zeros((4, 2)), predicate=np.zeros((1, 2)))
    test = [T(0, 0, 1)]
    ranks = rank_queries(model, test, known=test)
    assert np.isfinite(ranks).all()


@pytest.mark.parametrize("tie_rule", TIE_RULES)
def test_non_finite_model_raises(tie_rule):
    # NaN scores compare false with everything: unchecked, the ranks come
    # out as 1, 0 or 0.5 and MRR as 1, inf or 2
    model = EmbeddingModel(entity=np.full((3, 2), np.nan), predicate=np.full((1, 2), np.nan))
    with pytest.raises(NumericError):
        rank_queries(model, [T(0, 0, 1)], [T(0, 0, 1)], tie_rule=tie_rule)


@pytest.mark.parametrize("norm, value", [("l1", 1e308), ("l2", 1e200)])
def test_overflowing_scores_raise(norm, value):
    # a finite model whose score sums (l1) or squares (l2) overflow: the
    # target scores inf and would tie with every overflowing candidate
    model = EmbeddingModel(entity=np.full((4, 2), value), predicate=np.full((1, 2), value),
                           norm=norm)
    model.assert_finite()
    for known in ([T(0, 0, 1), T(0, 0, 2)], ()):
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="inf"):
            rank_queries(model, [T(0, 0, 1)], known)


@pytest.mark.parametrize("block", [None, 1])
def test_first_overflowing_query_is_named(block, monkeypatch):
    # with predicate 1e308, (6, 0, 6) overflows on its object side only,
    # (e_6 + p) - e_6, and (7, 0, 7) on its subject side only,
    # (p - e_7) + e_7; the first in (triple, subject then object) order is
    # named, within one block of queries and (block 1) across blocks
    if block is not None:
        monkeypatch.setattr(tkgkit.embed, "SCORE_BLOCK", block)
    entity = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0], [1e308], [-1e308]])
    model = EmbeddingModel(entity=entity, predicate=np.array([[1e308]]), norm="l1")
    ok, obj, subj = T(0, 0, 1), T(6, 0, 6), T(7, 0, 7)
    cases = [
        ([ok, obj, subj], r"\(6, 0, 6\) is inf \(object query\)"),
        ([ok, subj, obj], r"\(7, 0, 7\) is inf \(subject query\)"),
        ([ok, ok, ok, obj], r"\(6, 0, 6\) is inf \(object query\)"),
    ]
    for test, message in cases:
        for known in (test, ()):
            with np.errstate(over="ignore"), pytest.raises(NumericError, match=message):
                rank_queries(model, test, known)


def test_unknown_tie_rule():
    model = EmbeddingModel(entity=np.zeros((2, 2)), predicate=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        rank_queries(model, [T(0, 0, 1)], [], tie_rule="hopeful")


def test_metrics_math():
    rep = metrics(np.array([[1.0, 4.0], [10.0, 25.0]]), ks=(1, 3, 10))
    assert rep.query_count == 4
    assert rep.mrr == pytest.approx((1 + 1 / 4 + 1 / 10 + 1 / 25) / 4)
    assert rep.hits[1] == 0.25
    assert rep.hits[3] == 0.25
    assert rep.hits[10] == 0.75


def test_metrics_empty_raises():
    for empty in ([], np.empty((0, 2))):
        with pytest.raises(ValueError):
            metrics(empty)


def test_evaluate_wrapper():
    rng = np.random.default_rng(5)
    model, test, known = random_case(rng)
    rep, ranks = evaluate(model, test, known)
    assert rep.query_count == ranks.size == 2 * len(test)
    again = metrics(ranks)
    assert rep.mrr == again.mrr


def test_metric_report_format():
    rep = metrics(np.array([[2.0]]), ks=(1, 3))
    text = rep.format()
    assert "mrr        0.5000" in text
    csv = rep.csv()
    assert csv.splitlines()[0] == "metric,value"
    assert "hits@3,1.000000" in csv


def test_ranks_tsv():
    text = ranks_tsv(np.array([T(3, 1, 4), T(0, 2, 5)]), np.array([[6.0, 2.5], [1.0, 12.0]]))
    assert text.splitlines() == [
        "subject\tpredicate\tobject\tside\trank",
        "3\t1\t4\tsubject\t6",
        "3\t1\t4\tobject\t2.5",
        "0\t2\t5\tsubject\t1",
        "0\t2\t5\tobject\t12",
    ]


def test_ranks_tsv_keeps_every_digit_of_large_ranks():
    # a mean-tie rank past 6 significant digits, and a rank past 10^6
    text = ranks_tsv(np.array([T(0, 0, 1)]), np.array([[123456.5, 1234567.0]]))
    assert text.splitlines()[1:] == ["0\t0\t1\tsubject\t123456.5", "0\t0\t1\tobject\t1234567"]
    ranks = np.arange(1.0, 100000.5, 0.5)
    assert [f"{r:.15g}" for r in ranks.tolist()] == [f"{r:g}" for r in ranks.tolist()]

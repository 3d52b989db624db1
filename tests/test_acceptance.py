"""Acceptance gate: one test per numbered criterion.

Criteria 1-4, 8 and 9 check the package against the three public benchmark
datasets (Wikidata12k, YAGO11k, ICEWS14) and skip with an explanatory
message when the data is not installed; see conftest.require_dataset.
Criteria 5-7 are self-contained property checks against independent
oracles (finite differences, exhaustive search, candidate enumeration)
and always run.
"""

from __future__ import annotations

import itertools
import math
from time import perf_counter

import numpy as np
import pytest

from conftest import DATASET_NAMES, build_graph, densify, require_dataset
from tkgkit.cpd import bottom_up
from tkgkit.embed import (
    EmbeddingModel,
    TrainConfig,
    adversarial_weights,
    batch_gradients,
    batch_loss,
    train,
)
from tkgkit.eval import metrics, rank_queries
from tkgkit.graph import TEST, TRAIN, VALID, load_dataset, strip_temporal
from tkgkit.leakage import apply_filter, audit
from tkgkit.transform import merge, split_cpd, split_parameterized, timestamp

DATASET_FORMAT = {"wikidata12k": "valid_time", "yago11k": "valid_time", "icews14": "event"}


def load_benchmark(name: str):
    return load_dataset(require_dataset(name), DATASET_FORMAT[name])


# ---------------------------------------------------------------------------
# criterion 1: dataset statistics
# ---------------------------------------------------------------------------

# entities, predicates, timestamps, train, valid, test
REFERENCE_STATS = {
    "wikidata12k": (12554, 24, 70, 32497, 4062, 4062),
    "yago11k": (10526, 10, 59, 16408, 2050, 2051),
    "icews14": (7128, 230, 365, 72826, 8941, 8963),
}


def test_c1_dataset_statistics():
    """Loader reproduces every reference count exactly, under 10 s each."""
    for name in DATASET_NAMES:
        t0 = perf_counter()
        g = load_benchmark(name)
        elapsed = perf_counter() - t0
        sizes = g.split_sizes()
        got = (
            g.num_entities, g.num_predicates, g.num_timestamps,
            sizes["train"], sizes["valid"], sizes["test"],
        )
        assert got == REFERENCE_STATS[name], name
        assert elapsed < 10.0, f"{name} load took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: leakage audit
# ---------------------------------------------------------------------------

# (count, percent) per cell: train dup, valid dup, test dup,
# valid-in-train, test-in-train
REFERENCE_AUDIT = {
    "wikidata12k": (
        (4720, 14.53), (214, 5.27), (193, 4.75), (1042, 27.10), (1027, 26.54),
    ),
    "yago11k": ((0, 0.0), (0, 0.0), (0, 0.0), (0, 0.0), (0, 0.0)),
    "icews14": (
        (30136, 41.38), (1544, 17.23), (1610, 18.01), (3499, 47.16), (3527, 48.11),
    ),
}


def test_c2_leakage_audit_counts():
    """Audit counts are exact; percentages within 0.01 points."""
    for name in DATASET_NAMES:
        s = strip_temporal(load_benchmark(name))
        a = audit(s["train"], s["valid"], s["test"])
        got = (
            (a.train.duplicates, a.train.duplicate_fraction),
            (a.valid.duplicates, a.valid.duplicate_fraction),
            (a.test.duplicates, a.test.duplicate_fraction),
            (a.valid_in_train, a.valid_in_train_fraction),
            (a.test_in_train, a.test_in_train_fraction),
        )
        for (count, frac), (want, pct) in zip(got, REFERENCE_AUDIT[name]):
            assert count == want, f"{name}: {count} != {want}"
            assert abs(100.0 * frac - pct) <= 0.01 + 1e-9, (
                f"{name}: {100.0 * frac:.4f}% vs {pct}%"
            )


# ---------------------------------------------------------------------------
# criterion 3: deterministic transform sizes
# ---------------------------------------------------------------------------

REFERENCE_TIMESTAMP_PREDS = {"wikidata12k": 1622, "yago11k": 570, "icews14": 17061}
REFERENCE_SPLIT_PREDS = {
    "wikidata12k": (("time", 10, 240), ("count", 25, 600)),
    "yago11k": (("time", 20, 200), ("count", 25, 250)),
    "icews14": (("time", 20, 4600), ("count", 25, 5750)),
}


def test_c3_deterministic_transform_sizes():
    """Timestamping and parameterized splits hit their exact predicate counts."""
    for name in DATASET_NAMES:
        g = load_benchmark(name)
        t0 = perf_counter()
        res = timestamp(g)
        assert perf_counter() - t0 < 120.0
        assert res.graph.num_predicates == REFERENCE_TIMESTAMP_PREDS[name], name
        for method, grow, want in REFERENCE_SPLIT_PREDS[name]:
            t0 = perf_counter()
            res = split_parameterized(g, method, grow)
            assert perf_counter() - t0 < 120.0
            assert res.graph.num_predicates == want, (name, method, grow)


# ---------------------------------------------------------------------------
# criterion 4: approximate transform sizes + merge round trip
# ---------------------------------------------------------------------------

REFERENCE_CPD_PREDS = {
    "wikidata12k": ("pref", 2.5, 726),
    "yago11k": ("pref", 5.0, 177),
    "icews14": ("adar", 25.0, 5866),
}
REFERENCE_MERGE_PREDS = {
    "wikidata12k": (4.0, 423),
    "yago11k": (2.0, 290),
    "icews14": (1.5, 11449),
}


def test_c4_cpd_and_merge_sizes_within_band():
    """CPD splits and merges land within +-50% of the reference counts;
    a full merge restores exactly one predicate per source."""
    for name in DATASET_NAMES:
        g = load_benchmark(name)
        score, eps, want = REFERENCE_CPD_PREDS[name]
        res = split_cpd(g, score=score, epsilon=eps)
        got = res.graph.num_predicates
        assert 0.5 * want <= got <= 1.5 * want, f"{name} cpd: {got} vs {want}"

        shrink, want = REFERENCE_MERGE_PREDS[name]
        got = merge(g, shrink).graph.num_predicates
        assert 0.5 * want <= got <= 1.5 * want, f"{name} merge: {got} vs {want}"

        full = merge(g, float("inf"))
        assert full.graph.num_predicates == g.num_predicates, name


# ---------------------------------------------------------------------------
# criterion 5a: gradient checks
# ---------------------------------------------------------------------------

def finite_difference(loss_fn, mat: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(mat)
    for idx in np.ndindex(mat.shape):
        orig = mat[idx]
        mat[idx] = orig + h
        hi = loss_fn()
        mat[idx] = orig - h
        lo = loss_fn()
        mat[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad


def _phi_negatives(entity, predicate, pos, negs, corrupt, norm):
    s = np.where(corrupt, pos[:, 0][:, None], negs)
    o = np.where(corrupt, negs, pos[:, 2][:, None])
    delta = entity[s] + predicate[pos[:, 1]][:, None, :] - entity[o]
    if norm == "l1":
        return np.abs(delta).sum(axis=-1), delta
    return np.sqrt((delta * delta).sum(axis=-1)), delta


def _sample_grad_case(rng):
    """One random configuration, resampled until safely differentiable."""
    while True:
        dim = int(rng.integers(2, 17))
        ne = int(rng.integers(3, 13))
        npred = int(rng.integers(2, 7))
        b = int(rng.integers(1, 7))
        k = int(rng.integers(1, 6))
        regime = ("uniform", "detached", "attached")[int(rng.integers(3))]
        cfg = TrainConfig(
            dimension=dim,
            norm="l1" if rng.random() < 0.5 else "l2",
            margin=float(rng.uniform(0.5, 2.0)),
            temperature=float(rng.uniform(0.2, 1.0)),
            adversarial=regime != "uniform",
            detach_weights=regime != "attached",
        )
        entity = rng.normal(0.0, 0.5, (ne, dim))
        predicate = rng.normal(0.0, 0.5, (npred, dim))
        pos = np.column_stack([
            rng.integers(0, ne, b), rng.integers(0, npred, b), rng.integers(0, ne, b),
        ]).astype(np.int64)
        negs = rng.integers(0, ne, (b, k), dtype=np.int64)
        corrupt = rng.integers(0, 2, (b, k)).astype(bool)

        # keep clear of the l1 kink and the l2 origin
        dpos = entity[pos[:, 0]] + predicate[pos[:, 1]] - entity[pos[:, 2]]
        phi_neg, dneg = _phi_negatives(entity, predicate, pos, negs, corrupt, cfg.norm)
        if min(np.abs(dpos).min(), np.abs(dneg).min()) < 1e-3:
            continue
        if cfg.norm == "l2" and min(np.sqrt((dpos * dpos).sum(-1)).min(), phi_neg.min()) < 1e-2:
            continue

        weights = None
        if regime == "detached":
            weights = adversarial_weights(phi_neg, cfg.margin, cfg.temperature)
        return entity, predicate, pos, negs, corrupt, cfg, weights


def test_c5a_gradient_check():
    """Analytic gradients match central differences to 1e-4 relative
    tolerance on 100 random configurations with dimension <= 16."""
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(100):
        entity, predicate, pos, negs, corrupt, cfg, weights = _sample_grad_case(rng)
        _, d_ent, d_pred = batch_gradients(
            entity, predicate, pos, negs, corrupt, cfg, weights=weights
        )

        def loss():
            return batch_loss(entity, predicate, pos, negs, corrupt, cfg, weights=weights)

        for analytic, mat in ((d_ent, entity), (d_pred, predicate)):
            # a batch listing fewer ids than the matrix has rows gives the pair
            analytic = densify(analytic, mat)
            fd = finite_difference(loss, mat)
            err = np.abs(analytic - fd).max() / max(1.0, np.abs(fd).max())
            worst = max(worst, err)
    assert worst <= 1e-4, f"worst relative gradient error {worst:.2e}"


# ---------------------------------------------------------------------------
# criterion 5b: temporal transforms beat the static baseline
# ---------------------------------------------------------------------------

def reversal_graph():
    """50 entities, 4 predicates, 20 timestamps.  Predicate 0's object is a
    pure function of the timestamp (object o_t at stamp t), so its object
    distribution flips from the first ten objects to the second ten at
    t=10.  Each subject attends only four scattered stamps; one second-half
    attendance per subject is held out as test.  The answer is therefore
    exactly determined by the stamp but looks uniform once time is
    stripped, and no stripped test triple occurs in stripped training."""
    facts, splits = [], []
    for i in range(25):  # subjects 0-24, objects 25-44, spares 45-49
        stamps = sorted((i + 5 * k) % 20 for k in range(4))
        first = [t for t in stamps if t < 10]
        second = [t for t in stamps if t >= 10]
        t_valid = first[(i // 5) % len(first)]
        t_test = second[(i // 5) % len(second)]
        for t in stamps:
            facts.append((i, 0, 25 + t, t, t))
            splits.append(TEST if t == t_test else VALID if t == t_valid else TRAIN)
    for t in range(19):  # chain anchoring the object embeddings
        facts.append((25 + t, 1, 25 + t + 1, 0, 0))
        splits.append(TRAIN)
    for k in range(30):  # ring anchoring subjects and spares
        a = k if k < 25 else 45 + (k - 25)
        nxt = k + 1 if k + 1 < 25 else 45 + (k + 1 - 25) if k + 1 < 30 else 0
        facts.append((a, 2, nxt, 0, 0))
        splits.append(TRAIN)
    for i in range(25):  # static per-subject anchor
        facts.append((i, 3, 25 + (3 * i) % 20, 0, 0))
        splits.append(TRAIN)
    return build_graph(facts, splits, num_entities=50, num_predicates=4, num_times=20)


def _filtered_mrr(g, seed: int) -> float:
    s = strip_temporal(g)
    cfg = TrainConfig(
        dimension=32, epochs=50, learning_rate=0.1, batch_size=32,
        negative_samples=8, negative_mode="per_positive", margin=2.0, seed=seed,
    )
    model = train(s["train"], g.num_entities, g.num_predicates, cfg)
    known = np.concatenate((s["train"], s["valid"], s["test"]))
    return metrics(rank_queries(model, s["test"], known, "mean")).mrr


def test_c5b_transforms_beat_static_baseline():
    """On the synthetic mid-timeline reversal graph, 50-epoch runs with the
    timestamp and split(time) transforms each reach strictly higher
    filtered MRR than the plain temporal strip in at least 4 of 5 seeds,
    in under 5 minutes."""
    t0 = perf_counter()
    g = reversal_graph()
    assert (g.num_entities, g.num_predicates, g.num_timestamps) == (50, 4, 20)
    stripped = strip_temporal(g)
    test_rows, train_rows = (set(map(tuple, stripped[k].tolist())) for k in ("test", "train"))
    assert not test_rows & train_rows  # no leakage
    variants = {
        "strip": g,
        "timestamp": timestamp(g).graph,
        "split_time": split_parameterized(g, "time", 5.0).graph,
    }
    wins = {"timestamp": 0, "split_time": 0}
    for seed in range(5):
        base = _filtered_mrr(variants["strip"], seed)
        for name in wins:
            if _filtered_mrr(variants[name], seed) > base:
                wins[name] += 1
    elapsed = perf_counter() - t0
    assert wins["timestamp"] >= 4, wins
    assert wins["split_time"] >= 4, wins
    assert elapsed < 300.0, f"took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# criterion 6: segmentation near-optimality
# ---------------------------------------------------------------------------

GAMMA = 0.8

# (signal, true change points); constant runs of length >= 2, jumps >= 2
NOISELESS = [
    ([1.0] * 8, []),
    ([0.0] * 6 + [3.0] * 6, [6]),
    ([0.0] * 4 + [2.5] * 4 + [6.0] * 4, [4, 8]),
    ([0.0] * 2 + [3.0] * 3 + [0.0] * 2 + [3.0] * 3, [2, 5, 7]),
    ([5.0] * 3 + [1.0] * 9, [3]),
    ([0.0] * 2 + [2.0] * 2, [2]),
    ([4.0] * 5 + [0.0] * 2 + [4.0] * 5, [5, 7]),
]


def naive_segment_cost(x, a: int, b: int) -> float:
    total = 0.0
    for i in range(a, b):
        for j in range(a, b):
            total += math.exp(-GAMMA * (x[i] - x[j]) ** 2)
    return (b - a) - total / (b - a)


def best_cost_by_cut_count(x) -> dict[int, float]:
    n = len(x)
    best: dict[int, float] = {}
    for k in range(n):
        for cuts in itertools.combinations(range(1, n), k):
            bounds = [0, *cuts, n]
            total = sum(
                naive_segment_cost(x, bounds[i], bounds[i + 1])
                for i in range(len(bounds) - 1)
            )
            if total < best.get(k, math.inf):
                best[k] = total
    return best


def test_c6_segmentation_near_optimal():
    """Bottom-up detection is within 5% of the exhaustive optimum at equal
    cut count on every suite signal, and recovers noiseless change points
    exactly."""
    rng = np.random.default_rng(7)
    suite = [np.asarray(sig, dtype=float) for sig, _ in NOISELESS]
    suite += [sig + rng.normal(0.0, 0.3, sig.size) for sig in suite if sig.size >= 6]

    for x in suite:
        best = best_cost_by_cut_count(x)
        # grid spans the under- to well-penalized regimes; far beyond this
        # (heavily over-merged solutions) greedy merging is known to drift
        for eps in (0.02, 0.2, 1.0, 2.0):
            seg = bottom_up(x, penalty=eps, min_size=1, jump=1, gamma=GAMMA)
            optimum = best[len(seg.change_points)]
            assert seg.total_cost >= optimum - 1e-9  # sanity: same cost convention
            assert seg.total_cost <= 1.05 * optimum + 1e-9, (
                f"{x!r} eps={eps}: {seg.total_cost:.6f} vs {optimum:.6f}"
            )

    for sig, cuts in NOISELESS:
        x = np.asarray(sig, dtype=float)
        seg = bottom_up(x, penalty=0.05, min_size=1, jump=1, gamma=GAMMA)
        assert seg.change_points == cuts, (sig, seg.change_points)


# ---------------------------------------------------------------------------
# criterion 7: ranking equals candidate enumeration
# ---------------------------------------------------------------------------

def enumerated_ranks(model, test, known, tie_rule, filtered):
    known_set = set(known)
    ranks = []
    for s, p, o in test:
        for side in ("subject", "object"):
            if side == "object":
                target = o
                score = {e: float(model.score(s, p, e)) for e in range(model.num_entities)}
                removed = {
                    e for e in score
                    if filtered and e != target and (s, p, e) in known_set
                }
            else:
                target = s
                score = {e: float(model.score(e, p, o)) for e in range(model.num_entities)}
                removed = {
                    e for e in score
                    if filtered and e != target and (e, p, o) in known_set
                }
            rivals = [e for e in score if e != target and e not in removed]
            better = sum(score[e] < score[target] for e in rivals)
            equal = sum(score[e] == score[target] for e in rivals)
            if tie_rule == "optimistic":
                ranks.append(float(better + 1))
            elif tie_rule == "pessimistic":
                ranks.append(float(better + equal + 1))
            else:
                ranks.append(better + equal / 2.0 + 1.0)
    return ranks


def test_c7_ranking_matches_enumeration():
    """rank_queries agrees exactly with per-candidate enumeration on 200
    random models with up to 50 entities, across tie rules and filtering."""
    rng = np.random.default_rng(11)
    for case in range(200):
        ne = int(rng.integers(2, 51))
        npred = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 7))
        if case % 3 == 0:  # integer embeddings force score ties
            ent = rng.integers(-1, 2, (ne, dim)).astype(float)
            pred = rng.integers(-1, 2, (npred, dim)).astype(float)
        else:
            ent = rng.normal(size=(ne, dim))
            pred = rng.normal(size=(npred, dim))
        model = EmbeddingModel(ent, pred, "l1" if case % 2 else "l2")

        def draw(k):
            return [
                (int(rng.integers(ne)), int(rng.integers(npred)), int(rng.integers(ne)))
                for _ in range(k)
            ]

        test = draw(int(rng.integers(1, 6)))
        known = draw(int(rng.integers(5, 40))) + test
        tie = ("optimistic", "pessimistic", "mean")[case % 3]
        filtered = case % 4 != 3
        got = rank_queries(model, test, known if filtered else (), tie)
        want = np.reshape(enumerated_ranks(model, test, known, tie, filtered), (-1, 2))
        assert got.tolist() == want.tolist(), case


# ---------------------------------------------------------------------------
# criterion 8: filter idempotence on the benchmarks
# ---------------------------------------------------------------------------

def test_c8_filter_idempotent_on_benchmarks():
    """apply_filter is idempotent for every mode on every benchmark, and
    auditing after mode=both reports zeros across the board."""
    for name in DATASET_NAMES:
        s = strip_temporal(load_benchmark(name))
        splits = (s["train"], s["valid"], s["test"])
        for mode in ("none", "intra", "inter", "both"):
            once = apply_filter(*splits, mode)
            twice = apply_filter(*once, mode)
            assert all(map(np.array_equal, twice, once)), (name, mode)
        a = audit(*apply_filter(*splits, "both"))
        assert (a.train.duplicates, a.valid.duplicates, a.test.duplicates) == (0, 0, 0)
        assert (a.valid_in_train, a.test_in_train) == (0, 0)


# ---------------------------------------------------------------------------
# criterion 9: leakage filtering lowers measured hits@10
# ---------------------------------------------------------------------------

def test_c9_leakage_filter_lowers_hits10():
    """On stripped ICEWS14, 20-epoch runs score lower hits@10 with
    mode=both than with mode=none for all three seeds."""
    g = load_benchmark("icews14")
    s = strip_temporal(g)
    hits = {}
    for mode in ("none", "both"):
        tr, va, te = apply_filter(s["train"], s["valid"], s["test"], mode)
        for seed in range(3):
            cfg = TrainConfig(epochs=20, seed=seed)
            model = train(tr, g.num_entities, g.num_predicates, cfg)
            ranks = rank_queries(model, te, np.concatenate((tr, va, te)), "mean")
            hits[mode, seed] = metrics(ranks, (10,)).hits[10]
    for seed in range(3):
        assert hits["both", seed] < hits["none", seed], hits

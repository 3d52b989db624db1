"""Embedding model: loss/gradient oracles, sampling, Adam, training loop."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import densify
from tkgkit import (
    DataError,
    EmbeddingModel,
    NumericError,
    TrainConfig,
    train,
)
from tkgkit.embed import (
    ADAM_BLOCK,
    Adam,
    GradientWorkspace,
    _dphi,
    _draw_negatives,
    _log_sigmoid,
    _neg_ids,
    _phi_delta,
    _resolve_weights,
    _sigmoid,
    adversarial_weights,
    batch_gradients,
    batch_loss,
    export_embeddings,
    load_model,
    save_model,
    xavier_uniform,
)


def make_batch(rng, n_ent=6, n_pred=3, B=4, K=3, dim=5):
    entity = rng.normal(size=(n_ent, dim))
    predicate = rng.normal(size=(n_pred, dim))
    pos = np.stack(
        [
            rng.integers(0, n_ent, size=B),
            rng.integers(0, n_pred, size=B),
            rng.integers(0, n_ent, size=B),
        ],
        axis=1,
    ).astype(np.int64)
    neg = rng.integers(0, n_ent, size=(B, K))
    corrupt = rng.integers(0, 2, size=(B, K)).astype(bool)
    return entity, predicate, pos, neg, corrupt


# ---------------------------------------------------------------------------
# loss against a from-first-principles recomputation
# ---------------------------------------------------------------------------

def reference_loss(entity, predicate, pos, neg, corrupt, cfg, weights=None):
    def phi(s, p, o):
        d = entity[s] + predicate[p] - entity[o]
        if cfg.norm == "l1":
            return float(np.abs(d).sum())
        return float(np.sqrt((d * d).sum()))

    def logsig(x):
        return -math.log1p(math.exp(-x)) if x > -30 else x

    B, K = neg.shape
    total = 0.0
    for i in range(B):
        s, p, o = pos[i]
        phis = []
        for j in range(K):
            if corrupt[i, j]:
                phis.append(phi(s, p, neg[i, j]))
            else:
                phis.append(phi(neg[i, j], p, o))
        if weights is not None:
            w = weights[i]
        elif cfg.adversarial:
            z = [cfg.temperature * (cfg.margin - f) for f in phis]
            mx = max(z)
            ex = [math.exp(v - mx) for v in z]
            w = [v / sum(ex) for v in ex]
        else:
            w = [1.0 / K] * K
        term = -logsig(cfg.margin - phi(s, p, o))
        term -= sum(w[j] * logsig(phis[j] - cfg.margin) for j in range(K))
        total += term
    return total / B


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("adversarial", [True, False])
def test_batch_loss_matches_reference(norm, adversarial):
    rng = np.random.default_rng(42)
    entity, predicate, pos, neg, corrupt = make_batch(rng)
    cfg = TrainConfig(dimension=5, norm=norm, adversarial=adversarial,
                      margin=2.0, temperature=0.8)
    got = batch_loss(entity, predicate, pos, neg, corrupt, cfg)
    want = reference_loss(entity, predicate, pos, neg, corrupt, cfg)
    assert got == pytest.approx(want, rel=1e-10)


def test_adversarial_weights_softmax():
    phi = np.array([[1.0, 3.0, 2.0]])
    w = adversarial_weights(phi, margin=1.0, temperature=0.5)
    z = 0.5 * (1.0 - phi[0])
    want = np.exp(z) / np.exp(z).sum()
    np.testing.assert_allclose(w[0], want)
    assert w.sum() == pytest.approx(1.0)
    # the better-scoring negative (lower phi) carries more weight
    assert w[0, 0] > w[0, 2] > w[0, 1]


# ---------------------------------------------------------------------------
# gradients against central finite differences
# ---------------------------------------------------------------------------

def fd_gradients(loss_fn, entity, predicate, h=1e-6):
    d_ent = np.zeros_like(entity)
    for idx in np.ndindex(entity.shape):
        e1, e2 = entity.copy(), entity.copy()
        e1[idx] += h
        e2[idx] -= h
        d_ent[idx] = (loss_fn(e1, predicate) - loss_fn(e2, predicate)) / (2 * h)
    d_pred = np.zeros_like(predicate)
    for idx in np.ndindex(predicate.shape):
        p1, p2 = predicate.copy(), predicate.copy()
        p1[idx] += h
        p2[idx] -= h
        d_pred[idx] = (loss_fn(entity, p1) - loss_fn(entity, p2)) / (2 * h)
    return d_ent, d_pred


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_gradients_detached_weights(norm):
    rng = np.random.default_rng(7)
    entity, predicate, pos, neg, corrupt = make_batch(rng)
    cfg = TrainConfig(dimension=5, norm=norm, margin=1.5, temperature=0.7)
    base_w = adversarial_weights(
        batch_loss and _phi_of(entity, predicate, pos, neg, corrupt, cfg),
        cfg.margin,
        cfg.temperature,
    )
    loss, d_ent, d_pred = batch_gradients(
        entity, predicate, pos, neg, corrupt, cfg, weights=base_w
    )
    fd_ent, fd_pred = fd_gradients(
        lambda e, p: batch_loss(e, p, pos, neg, corrupt, cfg, weights=base_w),
        entity,
        predicate,
    )
    np.testing.assert_allclose(d_ent, fd_ent, rtol=1e-4, atol=1e-7)
    np.testing.assert_allclose(d_pred, fd_pred, rtol=1e-4, atol=1e-7)


def _phi_of(entity, predicate, pos, neg, corrupt, cfg):
    from tkgkit.embed import _neg_ids, _phi_delta

    s_neg, o_neg = _neg_ids(pos, neg, corrupt)
    phi, _ = _phi_delta(entity, predicate, s_neg, pos[:, 1][:, None], o_neg, cfg.norm)
    return phi


def test_gradients_attached_weights():
    rng = np.random.default_rng(13)
    entity, predicate, pos, neg, corrupt = make_batch(rng)
    cfg = TrainConfig(dimension=5, norm="l2", margin=1.0, temperature=0.5,
                      detach_weights=False)
    loss, d_ent, d_pred = batch_gradients(entity, predicate, pos, neg, corrupt, cfg)
    # finite differences recompute the softmax weights at every probe
    fd_ent, fd_pred = fd_gradients(
        lambda e, p: batch_loss(e, p, pos, neg, corrupt, cfg),
        entity,
        predicate,
    )
    np.testing.assert_allclose(d_ent, fd_ent, rtol=1e-4, atol=1e-7)
    np.testing.assert_allclose(d_pred, fd_pred, rtol=1e-4, atol=1e-7)


def test_gradients_uniform_weights():
    rng = np.random.default_rng(29)
    entity, predicate, pos, neg, corrupt = make_batch(rng)
    cfg = TrainConfig(dimension=5, norm="l1", adversarial=False)
    loss, d_ent, d_pred = batch_gradients(entity, predicate, pos, neg, corrupt, cfg)
    fd_ent, fd_pred = fd_gradients(
        lambda e, p: batch_loss(e, p, pos, neg, corrupt, cfg), entity, predicate
    )
    np.testing.assert_allclose(d_ent, fd_ent, rtol=1e-4, atol=1e-7)
    np.testing.assert_allclose(d_pred, fd_pred, rtol=1e-4, atol=1e-7)


def test_gradient_zero_delta_is_safe():
    entity = np.zeros((3, 4))
    predicate = np.zeros((2, 4))
    pos = np.array([[0, 0, 1]], dtype=np.int64)
    neg = np.array([[2]])
    corrupt = np.array([[True]])
    for norm in ("l1", "l2"):
        cfg = TrainConfig(dimension=4, norm=norm)
        loss, d_ent, d_pred = batch_gradients(entity, predicate, pos, neg, corrupt, cfg)
        assert math.isfinite(loss)
        assert np.isfinite(d_ent).all() and np.isfinite(d_pred).all()


def test_score_leaves_model_unchanged():
    rng = np.random.default_rng(2)
    model = EmbeddingModel(rng.normal(size=(5, 4)), rng.normal(size=(3, 4)))
    before = model.entity.tobytes(), model.predicate.tobytes()
    # a scalar id's row is a view of the model
    for s, p, o in ((0, 1, 2), (3, 0, 3)):
        model.score(s, p, o)
        _phi_delta(model.entity, model.predicate, s, p, o, "l1")
    assert (model.entity.tobytes(), model.predicate.tobytes()) == before
    # ids of different shapes broadcast
    want = [model.score(0, 1, e) for e in range(5)]
    assert model.score(0, 1, np.arange(5)).tolist() == want


# ---------------------------------------------------------------------------
# gradients against the scatter they replace, bit for bit
# ---------------------------------------------------------------------------

def scatter_reference_gradients(entity, predicate, pos, neg_entities, corrupt_object, cfg):
    """batch_gradients as written with zeros_like and six np.add.at calls."""
    B = pos.shape[0]
    s, p, o = pos[:, 0], pos[:, 1], pos[:, 2]
    phi_pos, delta_pos = _phi_delta(entity, predicate, s, p, o, cfg.norm)
    s_neg, o_neg = _neg_ids(pos, neg_entities, corrupt_object)
    p_neg = np.broadcast_to(p[:, None], neg_entities.shape)
    phi_neg, delta_neg = _phi_delta(entity, predicate, s_neg, p_neg, o_neg, cfg.norm)
    w = _resolve_weights(phi_neg, cfg, None)

    g_neg = _log_sigmoid(phi_neg - cfg.margin)
    per_pos = -_log_sigmoid(cfg.margin - phi_pos) - (w * g_neg).sum(axis=1)
    loss = float(per_pos.mean())

    coef_pos = _sigmoid(phi_pos - cfg.margin) / B
    coef_neg = -w * _sigmoid(cfg.margin - phi_neg) / B
    if cfg.adversarial and not cfg.detach_weights:
        g_bar = (w * g_neg).sum(axis=1, keepdims=True)
        coef_neg += cfg.temperature * w * (g_neg - g_bar) / B

    d_entity = np.zeros_like(entity)
    d_predicate = np.zeros_like(predicate)

    dp_pos = coef_pos[:, None] * _dphi(delta_pos, phi_pos, cfg.norm)
    np.add.at(d_entity, s, dp_pos)
    np.add.at(d_entity, o, -dp_pos)
    np.add.at(d_predicate, p, dp_pos)

    dp_neg = coef_neg[..., None] * _dphi(delta_neg, phi_neg, cfg.norm)
    dim = entity.shape[1]
    flat = dp_neg.reshape(-1, dim)
    np.add.at(d_entity, s_neg.ravel(), flat)
    np.add.at(d_entity, o_neg.ravel(), -flat)
    np.add.at(d_predicate, p_neg.ravel(), flat)
    return loss, d_entity, d_predicate


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("weights", ["detached", "attached", "uniform"])
@pytest.mark.parametrize("k", [1, 4])
def test_gradients_match_scatter_reference_bytes(norm, weights, k):
    rng = np.random.default_rng(17 + k)
    # 5 entities for 8 positives and 8k negatives: ids repeat within the batch
    entity, predicate, pos, neg, corrupt = make_batch(rng, n_ent=5, B=8, K=k)
    # triple (0, 1, 4) has delta exactly 0, and so has its object-side
    # negative with entity 4: l1 signs and l2 quotients of 0 make +-0.0 rows
    entity[4] = entity[0] + predicate[1]
    pos[0] = (0, 1, 4)
    neg[0, 0], corrupt[0, 0] = 4, True
    # an all-zero predicate row and two equal entities give a second zero delta
    predicate[2] = 0.0
    entity[3] = entity[2]
    pos[1] = (2, 2, 3)
    cfg = TrainConfig(dimension=5, norm=norm, margin=1.5, temperature=0.7,
                      adversarial=weights != "uniform", detach_weights=weights == "detached")
    got = batch_gradients(entity, predicate, pos, neg, corrupt, cfg)
    want = scatter_reference_gradients(entity, predicate, pos, neg, corrupt, cfg)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


# reused by every example, so each batch meets buffers a batch of another shape left
SHARED_WORK = GradientWorkspace()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ent=st.integers(2, 40),
    n_pred=st.integers(1, 40),
    B=st.integers(1, 5),
    K=st.integers(1, 4),
    dim=st.integers(1, 6),
    norm=st.sampled_from(["l1", "l2"]),
    weights=st.sampled_from(["detached", "attached", "uniform"]),
)
def test_gradient_form_depends_on_the_batch_alone(seed, n_ent, n_pred, B, K, dim, norm, weights):
    # a batch lists 2 (B + BK) ids for each matrix, 4 to 50: fewer or more
    # than 2 to 40 entities, and than the predicates' rows plus the spare
    # row their o and o_neg contributions go to
    entity, predicate, pos, neg, corrupt = make_batch(
        np.random.default_rng(seed), n_ent=n_ent, n_pred=n_pred, B=B, K=K, dim=dim)
    cfg = TrainConfig(dimension=dim, norm=norm, margin=1.5, temperature=0.7,
                      adversarial=weights != "uniform", detach_weights=weights == "detached")
    listed = 2 * (B + B * K)
    s_neg, o_neg = _neg_ids(pos, neg, corrupt)
    touched = (np.unique(np.concatenate((pos[:, 0], pos[:, 2], s_neg.ravel(), o_neg.ravel()))),
               np.unique(pos[:, 1]))
    want = scatter_reference_gradients(entity, predicate, pos, neg, corrupt, cfg)
    for work in (None, GradientWorkspace(), SHARED_WORK):
        got = batch_gradients(entity, predicate, pos, neg, corrupt, cfg, work=work)
        assert got[0] == want[0]
        for g, w, rows, pair in zip(got[1:], want[1:], touched,
                                    (listed < n_ent, listed < n_pred + 1)):
            assert isinstance(g, tuple) == pair
            if pair:
                assert g[0].tolist() == rows.tolist()
            assert densify(g, w).tobytes() == w.tobytes()


def test_shared_workspace_leaks_no_stale_rows():
    # 40 entities and 30 predicates: a batch of one positive with one
    # negative returns a few rows (the pair), one with 60 negatives lists
    # more ids than there are rows and returns them all (a dense array)
    rng = np.random.default_rng(5)
    entity, predicate = rng.normal(size=(40, 6)), rng.normal(size=(30, 6))
    cfg = TrainConfig(dimension=6, detach_weights=False)
    calls = [
        (np.array([[0, 0, 1]]), np.array([[2]]), np.array([[True]])),
        (np.array([[3, 1, 4]]), np.array([[5]]), np.array([[False]])),
        (np.array([[6, 2, 7]]), rng.integers(8, 40, size=(1, 60)), rng.random((1, 60)) < 0.5),
        (np.array([[0, 3, 1]]), np.array([[2]]), np.array([[True]])),
        (np.array([[9, 4, 10]]), np.array([[11]]), np.array([[False]])),
    ]
    work = GradientWorkspace()
    for pos, neg, corrupt in calls:
        got = batch_gradients(entity, predicate, pos, neg, corrupt, cfg, work=work)
        want = scatter_reference_gradients(entity, predicate, pos, neg, corrupt, cfg)
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            g = densify(g, w)
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_train_holds_no_dense_gradient():
    # 20,000 entities at d = 16, one epoch in three batches of 4,000
    # positives with one negative each
    n_ent, n_pred, dim, batch = 20_000, 10, 16, 4_000
    rng = np.random.default_rng(0)
    triples = np.stack([rng.integers(0, n_ent, 3 * batch), rng.integers(0, n_pred, 3 * batch),
                        rng.integers(0, n_ent, 3 * batch)], axis=1)
    cfg = TrainConfig(dimension=dim, epochs=1, batch_size=batch, negative_samples=batch,
                      learning_rate=0.01)
    tracemalloc.start()
    try:
        train(triples, n_ent, n_pred, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parameters and both Adam moments, plus 15 (batch, d) arrays: the
    # batch's gathers and differences, a band of contributions and its cell
    # indices, the touched rows' sums and Adam's scratch.  A dense gradient
    # alone is 5 of them, and full-width contributions and cell indices 8
    model = 3 * (n_ent + n_pred) * dim * 8
    assert peak < model + 15 * batch * dim * 8


def reference_train(triples, num_entities, num_predicates, cfg, history):
    """train() as written before the workspace: fresh gradients every step,
    from the np.add.at form of batch_gradients."""
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    n = arr.shape[0]
    rng = np.random.default_rng(cfg.seed)
    entity = xavier_uniform(rng, num_entities, cfg.dimension)
    predicate = xavier_uniform(rng, num_predicates, cfg.dimension)
    opt = Adam([entity, predicate], cfg.learning_rate)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = arr[order[start:start + cfg.batch_size]]
            k = cfg.negatives_per_positive(batch.shape[0])
            negs, corrupt_object = _draw_negatives(batch, k, num_entities, rng)
            loss, d_ent, d_pred = scatter_reference_gradients(
                entity, predicate, batch, negs, corrupt_object, cfg
            )
            opt.step([d_ent, d_pred])
            epoch_loss += loss * batch.shape[0]
        history.append(epoch_loss / n)
    return entity, predicate


@pytest.mark.parametrize("negative_mode", ["per_batch", "per_positive"])
@pytest.mark.parametrize("detach_weights", [True, False])
@pytest.mark.parametrize("num_entities, num_predicates", [(90, 40), (40, 20)])
def test_train_matches_fresh_gradient_reference_bytes(
    negative_mode, detach_weights, num_entities, num_predicates
):
    # 37 triples in batches of 8: four full batches and a short one of 5,
    # each positive with 2 negatives.  With 90 x 40 every step writes only
    # the rows it touches; with 40 x 20 the full batches list more ids than
    # there are rows and write every row, and the short one writes a few
    rng = np.random.default_rng(3)
    triples = np.stack([rng.integers(0, num_entities, 37), rng.integers(0, num_predicates, 37),
                        rng.integers(0, num_entities, 37)], axis=1)
    negatives = 9 if negative_mode == "per_batch" else 2
    cfg = TrainConfig(dimension=5, epochs=3, batch_size=8, negative_samples=negatives,
                      negative_mode=negative_mode, detach_weights=detach_weights,
                      learning_rate=0.05, norm="l2" if detach_weights else "l1", seed=4)
    history, want_history = [], []
    model = train(triples, num_entities, num_predicates, cfg, history=history)
    entity, predicate = reference_train(triples, num_entities, num_predicates, cfg, want_history)
    assert history == want_history
    assert model.entity.tobytes() == entity.tobytes()
    assert model.predicate.tobytes() == predicate.tobytes()


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_negative_sample_shape_and_side():
    pos = np.array([[3, 1, 5]])
    ents, corrupt_object = _draw_negatives(pos, 50, num_entities=10, rng=np.random.default_rng(0))
    assert ents.shape == corrupt_object.shape == (1, 50)
    assert ents.min() >= 0 and ents.max() < 10
    assert corrupt_object.any() and not corrupt_object.all()
    s_neg, o_neg = _neg_ids(pos, ents, corrupt_object)
    # exactly the corrupted side is replaced
    assert (s_neg[corrupt_object] == 3).all() and (o_neg[~corrupt_object] == 5).all()
    assert (o_neg[corrupt_object] == ents[corrupt_object]).all()
    assert (s_neg[~corrupt_object] == ents[~corrupt_object]).all()


def test_negative_sample_deterministic():
    pos = np.array([[0, 0, 1], [2, 1, 3]])
    a = _draw_negatives(pos, 20, 8, np.random.default_rng(4))
    b = _draw_negatives(pos, 20, 8, np.random.default_rng(4))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_negative_sample_single_entity_keeps_positive():
    ents, _ = _draw_negatives(np.array([[0, 0, 0]]), 5, 1, np.random.default_rng(1))
    assert (ents == 0).all()


def test_negatives_per_positive():
    cfg = TrainConfig(negative_samples=500, negative_mode="per_batch")
    assert cfg.negatives_per_positive(500) == 1
    assert cfg.negatives_per_positive(300) == 2  # ceil(500/300)
    cfg2 = TrainConfig(negative_samples=7, negative_mode="per_positive")
    assert cfg2.negatives_per_positive(500) == 7


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def reference_adam(params, grads_seq, lr, b1=0.9, b2=0.999, eps=1e-8):
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_seq, start=1):
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            m_hat = m[i] / (1 - b1**t)
            v_hat = v[i] / (1 - b2**t)
            params[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def test_adam_matches_reference():
    rng = np.random.default_rng(3)
    p0 = rng.normal(size=(4, 3))
    p1 = rng.normal(size=(2, 3))
    grads_seq = [[rng.normal(size=(4, 3)), rng.normal(size=(2, 3))] for _ in range(7)]
    want = reference_adam([p0, p1], grads_seq, lr=0.01)
    a0, a1 = p0.copy(), p1.copy()
    opt = Adam([a0, a1], learning_rate=0.01)
    for grads in grads_seq:
        opt.step(grads)
    np.testing.assert_allclose(a0, want[0], atol=1e-12)
    np.testing.assert_allclose(a1, want[1], atol=1e-12)


def whole_array_adam_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam.step as written with full-size temporaries."""
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for p, g, m_, v_ in zip(params, grads, m, v):
        m_ *= b1
        m_ += (1.0 - b1) * g
        v_ *= b2
        v_ += (1.0 - b2) * np.square(g)
        p -= lr * (m_ / c1) / (np.sqrt(v_ / c2) + eps)


def test_adam_blocks_match_whole_array_bytes():
    rng = np.random.default_rng(21)
    cols = 7
    # three full row blocks plus a partial one, and a single row
    shapes = [(3 * (ADAM_BLOCK // cols) + 5, cols), (1, cols)]
    params = [rng.normal(size=s) for s in shapes]
    want = [p.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    opt = Adam(params, learning_rate=0.01)
    for t in range(1, 8):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        grads[0][:3] = 0.0
        before = [g.copy() for g in grads]
        opt.step(grads)
        whole_array_adam_step(want, grads, m, v, t, lr=0.01)
        for g, b in zip(grads, before):
            assert g.tobytes() == b.tobytes()
        for got, ref in zip(params, want):
            assert got.tobytes() == ref.tobytes()
    for got, ref in zip(opt.m + opt.v, m + v):
        assert got.tobytes() == ref.tobytes()


def test_adam_row_pairs_match_dense_bytes():
    rng = np.random.default_rng(13)
    cols = 7
    per_block = ADAM_BLOCK // cols
    # two full row blocks plus a partial one, and a three-row matrix
    shapes = [(2 * per_block + 9, cols), (3, cols)]
    params = [rng.normal(size=s) for s in shapes]
    dense_params = [p.copy() for p in params]
    pair_opt, dense_opt = Adam(params, 0.01), Adam(dense_params, 0.01)
    # the smallest subnormals on rows no step touches: a decay that rounded
    # -5e-324 to -0.0 would keep it there, where the dense form's +0.0 makes +0.0
    tiny = np.nextafter(0.0, 1.0)
    for opt in (pair_opt, dense_opt):
        opt.m[0][per_block + 1, :2] = -tiny, tiny
    # rows 0 and 2 * per_block + 3 only in the first step, so later steps
    # only decay them; rows per_block + 1 and 2 never
    first = np.array([0, 3, per_block - 1, per_block, 2 * per_block + 3, 2 * per_block + 8])
    later = np.array([3, 5, per_block - 1, per_block, per_block + 2, 2 * per_block, 2 * per_block + 8])
    for t in range(6):
        rows = [first if t == 0 else later, np.array([1]) if t % 2 else np.array([], dtype=np.intp)]
        grads = [(r, rng.normal(size=(len(r), cols)) * 10.0 ** rng.integers(-6, 3))
                 for r in rows]
        # a touched row whose sum is exactly 0.0
        grads[0][1][1] = 0.0
        dense = [np.zeros(s) for s in shapes]
        for d, (r, sums) in zip(dense, grads):
            d[r] = sums
        before = [sums.copy() for _, sums in grads]
        pair_opt.step(grads)
        dense_opt.step(dense)
        for (_, sums), b in zip(grads, before):
            assert sums.tobytes() == b.tobytes()
        for got, want in zip(params + pair_opt.m + pair_opt.v,
                             dense_params + dense_opt.m + dense_opt.v):
            assert got.tobytes() == want.tobytes()
    assert pair_opt.m[0][per_block + 1, 0] == -tiny


def test_adam_first_step_size():
    p = np.array([[0.0]])
    opt = Adam([p], learning_rate=0.1)
    opt.step([np.array([[123.0]])])
    # bias correction makes the first update lr * sign(g) (up to eps)
    assert p[0, 0] == pytest.approx(-0.1, rel=1e-6)


# ---------------------------------------------------------------------------
# initialization and training loop
# ---------------------------------------------------------------------------

def test_xavier_uniform_bound():
    rng = np.random.default_rng(0)
    w = xavier_uniform(rng, 1000, 8)
    bound = math.sqrt(6.0 / 16.0)
    assert w.shape == (1000, 8)
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.9 * bound  # actually fills the range


def toy_triples():
    return [(i, i % 2, (i + 1) % 6) for i in range(6)] * 3


def test_train_deterministic():
    cfg = TrainConfig(dimension=8, epochs=3, batch_size=4, negative_samples=4, seed=11)
    h1, h2 = [], []
    m1 = train(toy_triples(), 6, 2, cfg, history=h1)
    m2 = train(toy_triples(), 6, 2, cfg, history=h2)
    np.testing.assert_array_equal(m1.entity, m2.entity)
    np.testing.assert_array_equal(m1.predicate, m2.predicate)
    assert h1 == h2
    assert len(h1) == 3


def test_train_seed_changes_model():
    cfg_a = TrainConfig(dimension=8, epochs=2, batch_size=4, negative_samples=4, seed=0)
    cfg_b = TrainConfig(dimension=8, epochs=2, batch_size=4, negative_samples=4, seed=1)
    m_a = train(toy_triples(), 6, 2, cfg_a)
    m_b = train(toy_triples(), 6, 2, cfg_b)
    assert not np.array_equal(m_a.entity, m_b.entity)


def test_train_zero_epochs_returns_initialization():
    cfg = TrainConfig(dimension=8, epochs=0, seed=5)
    model = train(toy_triples(), 6, 2, cfg)
    rng = np.random.default_rng(5)
    np.testing.assert_array_equal(model.entity, xavier_uniform(rng, 6, 8))
    np.testing.assert_array_equal(model.predicate, xavier_uniform(rng, 2, 8))


def test_train_loss_decreases():
    cfg = TrainConfig(dimension=16, epochs=30, batch_size=6, negative_samples=6,
                      learning_rate=0.05, seed=2)
    history: list[float] = []
    train(toy_triples(), 6, 2, cfg, history=history)
    assert history[-1] < history[0]


def test_train_rejects_bad_input():
    cfg = TrainConfig(dimension=4, epochs=1)
    with pytest.raises(DataError):
        train([], 5, 2, cfg)
    with pytest.raises(ValueError):
        train([(9, 0, 0)], 5, 2, cfg)
    with pytest.raises(ValueError):
        train([(0, 7, 0)], 5, 2, cfg)


def test_train_config_validation():
    TrainConfig().validate()
    bad = [
        TrainConfig(dimension=0),
        TrainConfig(epochs=-1),
        TrainConfig(learning_rate=0),
        TrainConfig(batch_size=0),
        TrainConfig(negative_samples=0),
        TrainConfig(negative_mode="mixed"),
        TrainConfig(margin=0),
        TrainConfig(temperature=0),
        TrainConfig(norm="l3"),
        TrainConfig(learning_rate=math.inf),
        TrainConfig(margin=math.inf),
        TrainConfig(temperature=math.inf),
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            cfg.validate()


def test_train_non_finite_raises_numeric_error():
    # the first Adam step moves weights to ~1e308, so the next batch's score
    # sums overflow to inf and the loss stops being finite
    cfg = TrainConfig(dimension=4, epochs=5, batch_size=6, negative_samples=2,
                      learning_rate=1e308, seed=0)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="step"):
        train(toy_triples(), 6, 2, cfg)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_model_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    model = EmbeddingModel(entity=rng.normal(size=(5, 4)),
                           predicate=rng.normal(size=(3, 4)), norm="l2")
    save_model(model, tmp_path / "m")
    back = load_model(tmp_path / "m")
    np.testing.assert_array_equal(back.entity, model.entity)
    np.testing.assert_array_equal(back.predicate, model.predicate)
    assert back.norm == "l2"


def test_model_save_is_byte_stable(tmp_path):
    rng = np.random.default_rng(8)
    model = EmbeddingModel(entity=rng.normal(size=(5, 4)),
                           predicate=rng.normal(size=(3, 4)))
    save_model(model, tmp_path / "a")
    save_model(model, tmp_path / "b")
    for name in ("entity.npy", "predicate.npy", "model.meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_load_model_missing(tmp_path):
    with pytest.raises(DataError):
        load_model(tmp_path / "nope")


def test_load_model_version_check(tmp_path):
    rng = np.random.default_rng(8)
    model = EmbeddingModel(entity=rng.normal(size=(2, 2)),
                           predicate=rng.normal(size=(1, 2)))
    save_model(model, tmp_path / "m")
    meta = tmp_path / "m" / "model.meta.json"
    meta.write_text(meta.read_text().replace('"format_version": 1', '"format_version": 99'))
    with pytest.raises(DataError, match="version"):
        load_model(tmp_path / "m")


@pytest.mark.parametrize(
    "key,value,hint",
    [
        ("num_entities", 99, "entity.npy"),
        ("num_predicates", 3, "predicate.npy"),
        ("dimension", 5, "entity.npy"),
        ("norm", "l3", "norm"),
    ],
)
def test_load_model_checks_meta(tmp_path, key, value, hint):
    model = EmbeddingModel(entity=np.zeros((2, 2)), predicate=np.zeros((1, 2)))
    save_model(model, tmp_path / "m")
    meta_path = tmp_path / "m" / "model.meta.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(DataError, match=hint):
        load_model(tmp_path / "m")


@pytest.mark.parametrize("meta", ["[1]", "1", '"model"', "null"])
def test_load_model_rejects_meta_that_is_not_an_object(tmp_path, meta):
    model = EmbeddingModel(entity=np.zeros((2, 2)), predicate=np.zeros((1, 2)))
    save_model(model, tmp_path / "m")
    (tmp_path / "m" / "model.meta.json").write_text(meta)
    with pytest.raises(DataError, match="not an object"):
        load_model(tmp_path / "m")


@pytest.mark.parametrize("name", ["entity", "predicate"])
@pytest.mark.parametrize("dtype", [np.complex128, np.float32, np.int64])
def test_load_model_rejects_arrays_that_are_not_float64(tmp_path, name, dtype):
    # a complex array would load and then fail to rank with a TypeError
    model = EmbeddingModel(entity=np.zeros((2, 2)), predicate=np.zeros((1, 2)))
    save_model(model, tmp_path / "m")
    path = tmp_path / "m" / f"{name}.npy"
    np.save(path, np.load(path).astype(dtype))
    with pytest.raises(DataError, match=f"{name}.npy holds .*, not float64"):
        load_model(tmp_path / "m")


def test_export_embeddings(tmp_path):
    model = EmbeddingModel(entity=np.arange(6.0).reshape(3, 2),
                           predicate=np.ones((1, 2)))
    export_embeddings(model, ("a", "b", "c"), ("r",), tmp_path)
    lines = (tmp_path / "entity_embeddings.tsv").read_text().splitlines()
    assert len(lines) == 3
    label, *vals = lines[1].split("\t")
    assert label == "b"
    assert [float(v) for v in vals] == [2.0, 3.0]

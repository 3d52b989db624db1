"""Translational embedding with self-adversarial negative sampling.

The model scores a triple by the norm of e_s + e_p - e_o; lower is more
plausible.  Training minimizes

    L = -log sig(margin - phi(pos)) - sum_i w_i log sig(phi(neg_i) - margin)

where the negative weights w_i are a softmax over temperature * (margin -
phi(neg_i)), by default treated as constants when differentiating.  All
gradients are written out by hand and applied with a from-scratch Adam;
numpy is the only dependency.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import DataError

NORMS = ("l1", "l2")
NEGATIVE_MODES = ("per_batch", "per_positive")


class NumericError(Exception):
    """Training hit a non-finite loss."""


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_float(text: str) -> float:
    """float(text), refusing NaN, which passes every range check; inf stays."""
    value = float(text)
    if math.isnan(value):
        raise ValueError("not a number")
    return value


# The [train] section of a pipeline config: key -> (parser, default as
# written in a config file).  TrainConfig's defaults are parsed from it, so
# each default is written once; range checks live in TrainConfig.validate.
TRAIN_KEYS = {
    "dimension": (int, "100"),
    "epochs": (int, "200"),
    "learning_rate": (parse_float, "1e-3"),
    "batch_size": (int, "500"),
    "negative_samples": (int, "500"),
    # per_batch: negative_samples is the per-batch total, shared out as
    # ceil(total / batch positives) per positive; per_positive: used directly
    "negative_mode": (str, "per_batch"),
    "margin": (parse_float, "1.0"),
    "temperature": (parse_float, "0.5"),
    "norm": (str, "l1"),
    "seed": (int, "0"),
    "adversarial": (parse_bool, "true"),
    "detach_weights": (parse_bool, "true"),
}


def _default(key: str):
    parse, text = TRAIN_KEYS[key]
    return parse(text)


@dataclass
class TrainConfig:
    dimension: int = _default("dimension")
    epochs: int = _default("epochs")
    learning_rate: float = _default("learning_rate")
    batch_size: int = _default("batch_size")
    negative_samples: int = _default("negative_samples")
    negative_mode: str = _default("negative_mode")
    margin: float = _default("margin")
    temperature: float = _default("temperature")
    norm: str = _default("norm")
    seed: int = _default("seed")
    adversarial: bool = _default("adversarial")
    detach_weights: bool = _default("detach_weights")

    def negatives_per_positive(self, batch_positives: int) -> int:
        if self.negative_mode == "per_positive":
            return self.negative_samples
        return -(-self.negative_samples // batch_positives)

    def validate(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.negative_samples < 1:
            raise ValueError("negative_samples must be >= 1")
        if self.negative_mode not in NEGATIVE_MODES:
            raise ValueError(f"negative_mode must be one of {NEGATIVE_MODES}")
        # inf passes parse_float, and a run would fail only at its first steps
        for name in ("learning_rate", "margin", "temperature"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class EmbeddingModel:
    entity: np.ndarray
    predicate: np.ndarray
    norm: str = "l1"

    @property
    def dimension(self) -> int:
        return self.entity.shape[1]

    @property
    def num_entities(self) -> int:
        return self.entity.shape[0]

    @property
    def num_predicates(self) -> int:
        return self.predicate.shape[0]

    def score(self, s, p, o) -> np.ndarray | float:
        """Norm of e_s + e_p - e_o; lower means more plausible."""
        ids = np.broadcast_arrays(s, p, o)
        phi, _ = _phi_delta(self.entity, self.predicate, *ids, self.norm)
        return phi

    def score_objects(self, s, p) -> np.ndarray:
        """Scores of (s, p, e) for every candidate entity e.

        ``s`` and ``p`` are ids, giving an (N,) array, or equal-length id
        arrays, giving one (B, N) row per query.
        """
        return self._entity_scores(np.subtract, self.entity[s] + self.predicate[p])

    def score_subjects(self, p, o) -> np.ndarray:
        """Scores of (e, p, o) for every candidate entity e; arguments as above."""
        return self._entity_scores(np.add, self.predicate[p] - self.entity[o])

    def _entity_scores(self, op, query: np.ndarray) -> np.ndarray:
        """Norm of ``op(q, e)`` for each query row q and every entity row e.

        Each score has the bits of numpy's norm of the query's whole (N, d)
        difference matrix, taken a tile of candidates at a time:

        - below ``ROWS_FROM`` dimensions, where ``sum(axis=-1)`` pays a call
          per short row, every query at once: the tile is transposed, so
          that column k's terms ``|op(q_k, e_k)|`` (or their squares) form
          one (b, width) slab, and the slabs are added in numpy's pairwise
          order;
        - from ``ROWS_FROM`` on, a query at a time, by ``sum(axis=-1)`` over
          row-major differences.

        The tiles share one scratch array of two ``SCORE_BLOCK`` blocks, or
        one candidate's share if that is more.
        """
        queries = query.reshape(-1, self.dimension)
        b, d = queries.shape
        n = self.num_entities
        per_candidate = 2 * d if d >= ROWS_FROM else d * (b + 1)
        step = min(n, max(1, 2 * SCORE_BLOCK // per_candidate))
        scratch = np.empty(step * per_candidate)
        magnitude = np.abs if self.norm == "l1" else np.square
        scores = np.empty((b, n))
        if d >= ROWS_FROM:
            # op on two equal shapes is about three times as fast as broadcasting a row
            repeated, delta = scratch[:2 * step * d].reshape(2, step, d)
            for row, out in zip(queries, scores):
                repeated[...] = row
                for start in range(0, n, step):
                    rows = self.entity[start:start + step]
                    diff = op(repeated[:len(rows)], rows, out=delta[:len(rows)])
                    magnitude(diff, out=diff).sum(axis=-1, out=out[start:start + step])
        else:
            for start in range(0, n, step):
                rows = self.entity[start:start + step]
                width = len(rows)
                columns = scratch[:d * width].reshape(d, width)
                np.copyto(columns, rows.T)
                terms = scratch[d * width:d * width * (b + 1)].reshape(d, b, width)
                op(queries.T[:, :, None], columns[:, None, :], out=terms)
                _pairwise_sum(magnitude(terms, out=terms), scores[:, start:start + width])
        if self.norm == "l2":
            np.sqrt(scores, out=scores)
        return scores if query.ndim > 1 else scores[0]

    def assert_finite(self) -> None:
        if not (np.isfinite(self.entity).all() and np.isfinite(self.predicate).all()):
            raise NumericError("model contains non-finite values")


# ---------------------------------------------------------------------------
# scoring internals
# ---------------------------------------------------------------------------

# elements in one block of scores when ranking, and half the scratch of a
# scoring call, whose tiles then stay in cache between passes
SCORE_BLOCK = 1 << 15
# dimension from which scoring sums rows rather than columns: on a 2-core
# Xeon with 1,255 or 12,554 candidates, columns took 2.6-3.4 ns per term at
# d = 4-16 against 2.7-9.3 for rows, and 3.1-4.5 against 1.9-2.4 at d = 64-100.
# It must stay at or below 129: _pairwise_sum adds at most 128 terms
ROWS_FROM = 24


def _norm_of(delta: np.ndarray, norm: str) -> np.ndarray:
    """Row norms of ``delta``."""
    if norm == "l1":
        return np.abs(delta).sum(axis=-1)
    return np.sqrt(np.square(delta).sum(axis=-1))


def _pairwise_sum(terms: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` the sum over the first axis of ``terms``, added in
    the order of numpy's pairwise summation of n <= 128 contiguous elements
    (``pairwise_sum`` in numpy's ``loops_utils.h.src``, which splits longer
    sums in halves first); ``terms`` is overwritten.  No term may be -0.0:
    numpy's sum starts from 0.0, which turns a sum of -0.0 into 0.0.
    """
    n = len(terms)
    if n < 8:
        np.copyto(out, terms[0])
        for term in terms[1:]:
            out += term
    else:
        # eight accumulators over terms j, j + 8, ...; then
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)); then the rest
        stop = n - n % 8
        r = terms[:8]
        for i in range(8, stop, 8):
            r += terms[i:i + 8]
        r[::2] += r[1::2]
        r[::4] += r[2::4]
        np.add(r[0], r[4], out=out)
        for term in terms[stop:]:
            out += term


def _phi_delta(entity, predicate, s, p, o, norm):
    # entity[s] is a view of the model for a scalar s, so the sum is a new array
    delta = entity[s] + predicate[p]
    delta -= entity[o]
    return _norm_of(delta, norm), delta


def _dphi(delta: np.ndarray, phi: np.ndarray, norm: str) -> np.ndarray:
    """Derivative of the score w.r.t. delta; zero vector at delta = 0."""
    if norm == "l1":
        return np.sign(delta)
    denom = np.where(phi == 0.0, 1.0, phi)
    return delta / denom[..., None]


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return np.exp(_log_sigmoid(x))


def adversarial_weights(phi_neg: np.ndarray, margin: float, temperature: float) -> np.ndarray:
    """Softmax over temperature * (margin - score), per row of negatives."""
    z = temperature * (margin - phi_neg)
    z = z - z.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


def _neg_ids(pos: np.ndarray, neg_entities: np.ndarray, corrupt_object: np.ndarray):
    s = pos[:, 0][:, None]
    o = pos[:, 2][:, None]
    s_neg = np.where(corrupt_object, s, neg_entities)
    o_neg = np.where(corrupt_object, neg_entities, o)
    return s_neg, o_neg


def batch_loss(
    entity: np.ndarray,
    predicate: np.ndarray,
    pos: np.ndarray,
    neg_entities: np.ndarray,
    corrupt_object: np.ndarray,
    cfg: TrainConfig,
    weights: np.ndarray | None = None,
) -> float:
    """Mean self-adversarial loss of a batch.

    ``pos`` is (B, 3); ``neg_entities`` and ``corrupt_object`` are (B, K)
    replacement entities and which side they replace.  Passing ``weights``
    fixes the negative weights as constants (useful for checking gradients
    of the detached loss by finite differences).
    """
    phi_pos, _ = _phi_delta(entity, predicate, pos[:, 0], pos[:, 1], pos[:, 2], cfg.norm)
    s_neg, o_neg = _neg_ids(pos, neg_entities, corrupt_object)
    p_neg = pos[:, 1][:, None]
    phi_neg, _ = _phi_delta(entity, predicate, s_neg, p_neg, o_neg, cfg.norm)
    w = _resolve_weights(phi_neg, cfg, weights)
    per_pos = -_log_sigmoid(cfg.margin - phi_pos) - (
        w * _log_sigmoid(phi_neg - cfg.margin)
    ).sum(axis=1)
    return float(per_pos.mean())


def _resolve_weights(phi_neg, cfg: TrainConfig, weights):
    if weights is not None:
        return weights
    if cfg.adversarial:
        return adversarial_weights(phi_neg, cfg.margin, cfg.temperature)
    return np.full_like(phi_neg, 1.0 / phi_neg.shape[1])


class GradientWorkspace:
    """Buffers that :func:`batch_gradients` reuses from one call to the next.

    They hold a band of columns of the batch's contributions, the band's
    cell indices and the gradient sums the last call returned, each grown
    to the largest batch.  They save allocations and change no result.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialized ``shape`` view of buffer ``name``, grown if too small."""
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


# elements in one band of a batch's contributions: the gradients are summed
# GRAD_BAND // (contributions in the batch) columns at a time, at least one.
# At d = 100 with 12,554 entities on a 2-core Xeon, 2^15 to 2^17 summed a
# batch of 2,000 positives with one negative each in 9.8-10.9 ms, against
# 11.8 ms at 2^12 and 15.5 ms at the full width, whose sums no longer stay
# in cache; at 500 positives, 2^12 (bands of 2 columns) was a third slower
GRAD_BAND = 1 << 16


def batch_gradients(
    entity: np.ndarray,
    predicate: np.ndarray,
    pos: np.ndarray,
    neg_entities: np.ndarray,
    corrupt_object: np.ndarray,
    cfg: TrainConfig,
    weights: np.ndarray | None = None,
    work: GradientWorkspace | None = None,
):
    """Loss plus the gradients of the entity and predicate matrices.

    When ``weights`` is None and ``cfg.detach_weights`` is False, the
    gradient includes the softmax term from the weights' dependence on the
    negative scores; otherwise the weights are constants.

    A gradient whose batch lists fewer ids than its matrix has rows is the
    pair ``(rows, sums)``: the increasing distinct ids the batch touches
    and their gradient rows, every other row's gradient being zero (the
    form :meth:`Adam.step` takes); a larger batch's is dense.  Either form
    lives in ``work``, a fresh workspace if None, until the next call with it.

    Each row sums its contributions (s, o, s_neg, o_neg rows, in batch
    order) a band of columns at a time, with one bincount over flat cell
    indices: every cell starts at 0.0 and adds its terms in input order,
    the same additions, in the same order, as ``np.add.at`` on a zeroed
    matrix, so the result is bit-identical.
    """
    work = work or GradientWorkspace()
    B = pos.shape[0]
    s, p, o = pos[:, 0], pos[:, 1], pos[:, 2]
    phi_pos, delta_pos = _phi_delta(entity, predicate, s, p, o, cfg.norm)
    s_neg, o_neg = _neg_ids(pos, neg_entities, corrupt_object)
    p_neg = np.broadcast_to(p[:, None], neg_entities.shape)
    phi_neg, delta_neg = _phi_delta(entity, predicate, s_neg, p_neg, o_neg, cfg.norm)
    w = _resolve_weights(phi_neg, cfg, weights)

    g_neg = _log_sigmoid(phi_neg - cfg.margin)
    per_pos = -_log_sigmoid(cfg.margin - phi_pos) - (w * g_neg).sum(axis=1)
    loss = float(per_pos.mean())

    coef_pos = _sigmoid(phi_pos - cfg.margin) / B
    coef_neg = -w * _sigmoid(cfg.margin - phi_neg) / B
    if weights is None and cfg.adversarial and not cfg.detach_weights:
        g_bar = (w * g_neg).sum(axis=1, keepdims=True)
        coef_neg += cfg.temperature * w * (g_neg - g_bar) / B

    # contributions in the order they are summed: s, o, s_neg, o_neg rows;
    # the predicate sums the s and s_neg rows and sends the o and o_neg rows
    # to a spare last row, so that both sum the same band of contributions
    n_neg, dim = neg_entities.size, entity.shape[1]
    n_ids = 2 * (B + n_neg)
    width = min(dim, max(1, GRAD_BAND // n_ids))
    spare = predicate.shape[0]
    targets = []
    for name, ids, n in (
        ("entity", np.concatenate((s, o, s_neg.ravel(), o_neg.ravel())), entity.shape[0]),
        ("predicate", np.concatenate((p, np.full(B, spare), p_neg.ravel(), np.full(n_neg, spare))),
         spare + 1),
    ):
        # a batch that could touch every row sums densely, which skips the sort
        touched = None
        if len(ids) < n:
            touched, ids = np.unique(ids, return_inverse=True)
            n = len(touched)
        # the cell of band column c in sum row i is c * n + i
        cells = np.add(ids, np.arange(0, width * n, n)[:, None],
                       out=work.take(name + " cells", (width, n_ids), np.intp))
        targets.append((touched, cells, work.take(name, (n, dim))))
    for lo in range(0, dim, width):
        cols = slice(lo, lo + width)
        band = min(width, dim - lo)
        # column lo + c of every contribution, in order, is row c of the band
        rows = work.take("rows", (band, n_ids))
        pos_rows, neg_rows = rows[:, :B], rows[:, 2 * B:2 * B + n_neg]
        np.multiply(coef_pos, _dphi(delta_pos[:, cols], phi_pos, cfg.norm).T, out=pos_rows)
        np.negative(pos_rows, out=rows[:, B:2 * B])
        dphi_neg = _dphi(delta_neg[..., cols], phi_neg, cfg.norm).reshape(n_neg, band)
        np.multiply(coef_neg.reshape(n_neg), dphi_neg.T, out=neg_rows)
        np.negative(neg_rows, out=rows[:, 2 * B + n_neg:])
        for _, cells, sums in targets:
            n = sums.shape[0]
            sums[:, cols] = np.bincount(cells[:band].ravel(), rows.ravel(),
                                        minlength=band * n).reshape(band, n).T
    (ent_rows, _, d_entity), (pred_rows, _, d_predicate) = targets
    # the spare id is the largest, so its row is the last
    d_predicate = d_predicate[:-1] if pred_rows is None else (pred_rows[:-1], d_predicate[:-1])
    return loss, d_entity if ent_rows is None else (ent_rows, d_entity), d_predicate


# ---------------------------------------------------------------------------
# sampling, optimizer, training loop
# ---------------------------------------------------------------------------

def _draw_negatives(pos: np.ndarray, k: int, num_entities: int, rng: np.random.Generator):
    B = pos.shape[0]
    corrupt_object = rng.integers(0, 2, size=(B, k)).astype(bool)
    ents = rng.integers(0, num_entities, size=(B, k))
    original = np.where(corrupt_object, pos[:, 2][:, None], pos[:, 0][:, None])
    clash = ents == original
    if clash.any():
        ents = np.where(clash, rng.integers(0, num_entities, size=(B, k)), ents)
    return ents, corrupt_object


# elements per row block of an Adam step: the block's slices of p, g, m, v
# and the two scratch arrays take 1.5 MB, which stays in cache; of 2^12 to
# 2^17, 2^15 was fastest on a 12,554 x 100 matrix
ADAM_BLOCK = 1 << 15
# Adam's decay rates of the moment estimates, and the term that keeps its
# denominator off zero (Kingma & Ba 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam over a fixed list of dense parameter arrays."""

    def __init__(self, params: list[np.ndarray], learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list) -> None:
        """One update of every parameter in place; ``grads`` is only read.

        A gradient is a dense array shaped like its parameter, or the pair
        ``(rows, sums)`` that :func:`batch_gradients` returns: increasing
        distinct row ids and their gradient rows, every other row's
        gradient being zero.  Rows are updated a block at a time through two
        block-sized scratch arrays, so the working set stays in cache and no
        full-size temporary is made.  Each element sees the same operations,
        in the same order, as the whole-array form
        ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` on the dense gradient.
        Every row decays (``m *= b1``, ``v *= b2``) and is updated, but a
        pair adds its gradient terms to m and v on its rows only: the dense
        form adds +0.0 to the other rows, which changes neither, since
        neither is ever -0.0 (both start at +0.0, and a factor above 0.5
        rounds no nonzero value to zero).
        """
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            touched, g = g if isinstance(g, tuple) else (None, g)
            rows = max(1, ADAM_BLOCK // math.prod(p.shape[1:]))
            a = np.empty((min(rows, len(p)),) + p.shape[1:])
            b = np.empty_like(a)
            for start in range(0, len(p), rows):
                blk = slice(start, start + rows)
                pb, mb, vb = p[blk], m[blk], v[blk]
                if touched is None:
                    at, gb = slice(None), g[blk]
                else:
                    first, stop = np.searchsorted(touched, (start, start + rows))
                    at, gb = touched[first:stop] - start, g[first:stop]
                ab, bb, gab = a[:len(pb)], b[:len(pb)], a[:len(gb)]
                mb *= b1
                np.multiply(1.0 - b1, gb, out=gab)
                mb[at] += gab
                vb *= b2
                np.square(gb, out=gab)
                np.multiply(1.0 - b2, gab, out=gab)
                vb[at] += gab
                np.divide(mb, c1, out=ab)
                np.multiply(self.lr, ab, out=ab)
                np.divide(vb, c2, out=bb)
                np.sqrt(bb, out=bb)
                bb += ADAM_EPS
                ab /= bb
                pb -= ab


def xavier_uniform(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (dim + dim))
    return rng.uniform(-bound, bound, size=(rows, dim))


def train(
    triples,
    num_entities: int,
    num_predicates: int,
    cfg: TrainConfig,
    history: list[float] | None = None,
) -> EmbeddingModel:
    """Train embeddings on (s, p, o) triples; reproducible for a seed.

    ``history``, when given, collects the mean loss of each epoch.
    """
    cfg.validate()
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    n = arr.shape[0]
    if n == 0:
        raise DataError("training set is empty")
    if arr[:, [0, 2]].max() >= num_entities or arr.min() < 0:
        raise ValueError("entity id out of range in training triples")
    if arr[:, 1].max() >= num_predicates:
        raise ValueError("predicate id out of range in training triples")

    rng = np.random.default_rng(cfg.seed)
    entity = xavier_uniform(rng, num_entities, cfg.dimension)
    predicate = xavier_uniform(rng, num_predicates, cfg.dimension)
    opt = Adam([entity, predicate], cfg.learning_rate)
    work = GradientWorkspace()

    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = arr[order[start:start + cfg.batch_size]]
            k = cfg.negatives_per_positive(batch.shape[0])
            negs, corrupt_object = _draw_negatives(batch, k, num_entities, rng)
            loss, d_ent, d_pred = batch_gradients(
                entity, predicate, batch, negs, corrupt_object, cfg, work=work
            )
            if not math.isfinite(loss):
                culprit = _first_non_finite(entity, predicate, batch, cfg)
                raise NumericError(
                    f"non-finite loss at step {step} (epoch {epoch});"
                    f" first affected triple {culprit}"
                )
            opt.step([d_ent, d_pred])
            step += 1
            epoch_loss += loss * batch.shape[0]
        if history is not None:
            history.append(epoch_loss / n)
    return EmbeddingModel(entity=entity, predicate=predicate, norm=cfg.norm)


def _first_non_finite(entity, predicate, batch, cfg: TrainConfig) -> tuple:
    phi, _ = _phi_delta(entity, predicate, batch[:, 0], batch[:, 1], batch[:, 2], cfg.norm)
    bad = np.flatnonzero(~np.isfinite(phi))
    row = batch[bad[0]] if bad.size else batch[0]
    return tuple(int(x) for x in row)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

MODEL_FORMAT_VERSION = 1


def save_model(model: EmbeddingModel, out_dir: str | Path, extra_meta: dict | None = None) -> None:
    # plain .npy files keep checkpoints byte-identical across reruns
    # (zip containers would embed timestamps)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "entity.npy", model.entity)
    np.save(out / "predicate.npy", model.predicate)
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "norm": model.norm,
        "dimension": model.dimension,
        "num_entities": model.num_entities,
        "num_predicates": model.num_predicates,
    }
    if extra_meta:
        meta.update(extra_meta)
    (out / "model.meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_model(model_dir: str | Path) -> EmbeddingModel:
    """Read a checkpoint, checking the arrays against the meta file."""
    root = Path(model_dir)
    try:
        meta = json.loads((root / "model.meta.json").read_text(encoding="utf-8"))
        entity = np.load(root / "entity.npy")
        predicate = np.load(root / "predicate.npy")
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read model from {root}: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{root}: model.meta.json holds a {type(meta).__name__}, not an object")
    if meta.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {meta.get('format_version')!r}")
    dim = meta.get("dimension")
    for name, array, rows in (
        ("entity", entity, meta.get("num_entities")),
        ("predicate", predicate, meta.get("num_predicates")),
    ):
        if array.shape != (rows, dim):
            raise DataError(
                f"{root}: {name}.npy has shape {array.shape}, meta file says ({rows}, {dim})"
            )
        if array.dtype != np.float64:
            raise DataError(f"{root}: {name}.npy holds {array.dtype}, not float64")
    if meta.get("norm") not in NORMS:
        raise DataError(f"{root}: norm {meta.get('norm')!r} is not one of {NORMS}")
    return EmbeddingModel(entity=entity, predicate=predicate, norm=meta["norm"])


def export_embeddings(
    model: EmbeddingModel,
    entity_labels: tuple[str, ...],
    predicate_labels: tuple[str, ...],
    out_dir: str | Path,
) -> None:
    """Write label<TAB>v1..vd rows for entities and predicates."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, labels, matrix in (
        ("entity_embeddings.tsv", entity_labels, model.entity),
        ("predicate_embeddings.tsv", predicate_labels, model.predicate),
    ):
        with open(out / name, "w", encoding="utf-8") as fh:
            for label, row in zip(labels, matrix):
                fh.write(label + "\t" + "\t".join(repr(float(x)) for x in row) + "\n")
